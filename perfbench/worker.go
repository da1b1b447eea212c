package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/securemem/morphtree/internal/proof"
)

// worker is one closed-loop caller: it issues its next op only after the
// previous reply, and checks every reply against the shadow model of the
// last acknowledged write. Nothing on its per-op path allocates.
type worker struct {
	id     int
	g      *gen
	tg     target
	shadow []uint32 // shared; this caller touches only its own shards' lines
	params proof.Params
	key    []byte
	pub    ed25519.PublicKey

	buf, want [lineBytes]byte

	// wins splits the measured loop into equal time slices starting at t0
	// (one slice when winDur is 0).
	wins   []window
	t0     time.Time
	winDur time.Duration
	ops    uint64
	failed uint64
	err    error
	// issued is an FNV-1a digest of the ops this caller issued, in order.
	issued uint64

	// Delta-checkpoint trigger (durable workloads): every cutEvery-th
	// acknowledged write, counted across callers, signals cutc.
	acked  *atomic.Uint64
	cutc   chan struct{}
	cutGen *atomic.Uint64

	// Traced runs only.
	traced                         bool
	timer                          *engineTimer
	nonEngine, cutWrite, build, vf hist
	proofBytes, proofs             uint64
	proofBuf                       []byte
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// window holds one time slice of the measurements.
type window struct {
	read, write, proof hist
	ops                uint64 // completed
}

func (w *window) merge(o *window) {
	w.read.merge(&o.read)
	w.write.merge(&o.write)
	w.proof.merge(&o.proof)
	w.ops += o.ops
}

// window returns the slice that time t falls in.
func (w *worker) window(t time.Time) *window {
	if w.winDur <= 0 {
		return &w.wins[0]
	}
	i := int(t.Sub(w.t0) / w.winDur)
	return &w.wins[max(0, min(i, len(w.wins)-1))]
}

// run issues ops until the deadline passes (zero: never) or maxOps ops
// were issued (zero: no limit), stopping at the first failure.
func (w *worker) run(deadline time.Time, maxOps uint64) {
	last := time.Now()
	for maxOps == 0 || w.ops < maxOps {
		win := w.window(last)
		kind, line := w.g.next()
		w.issued = (w.issued ^ (line<<2 | uint64(kind))) * fnvPrime
		var err error
		switch kind {
		case opWrite:
			last, err = w.doWrite(win, line)
		case opRead:
			last, err = w.doRead(win, line)
		default:
			last, err = w.doProof(win, line)
		}
		w.ops++
		if err != nil {
			w.failed++
			w.err = fmt.Errorf("caller %d op %d: %w", w.id, w.ops, err)
			return
		}
		win.ops++
		if !deadline.IsZero() && last.After(deadline) {
			return
		}
	}
}

func (w *worker) doWrite(win *window, line uint64) (time.Time, error) {
	v := w.shadow[line] + 1
	fill(w.buf[:], line, v)
	var gen0 uint64
	if w.cutGen != nil {
		gen0 = w.cutGen.Load()
	}
	start := time.Now()
	err := w.tg.write(line*lineBytes, w.buf[:])
	end := time.Now()
	if err != nil {
		return end, fmt.Errorf("write line %d: %w", line, err)
	}
	d := end.Sub(start)
	w.shadow[line] = v
	win.write.record(d)
	if w.traced {
		w.split(line, d)
		// A write overlaps a cut if one was running at its start or end,
		// or one started and ended in between (each cut bumps cutGen
		// twice, so the value is odd while one runs).
		if w.cutGen != nil {
			if gen1 := w.cutGen.Load(); gen1 != gen0 || gen0&1 == 1 {
				w.cutWrite.record(d)
			}
		}
	}
	if w.acked != nil && w.acked.Add(1)%cutEvery == 0 {
		select {
		case w.cutc <- struct{}{}:
		default: // a cut is already pending
		}
	}
	return end, nil
}

func (w *worker) doRead(win *window, line uint64) (time.Time, error) {
	start := time.Now()
	got, err := w.tg.read(line * lineBytes)
	end := time.Now()
	if err != nil {
		return end, fmt.Errorf("read line %d: %w", line, err)
	}
	d := end.Sub(start)
	if err := w.check(line, got); err != nil {
		return end, err
	}
	win.read.record(d)
	if w.traced {
		w.split(line, d)
	}
	return end, nil
}

// doProof fetches (or, without a server, builds) the read witness and
// verifies it against the pinned key; the op's latency covers both.
func (w *worker) doProof(win *window, line uint64) (time.Time, error) {
	start := time.Now()
	p, err := w.tg.prove(line * lineBytes)
	mid := time.Now()
	if err != nil {
		return mid, fmt.Errorf("proof line %d: %w", line, err)
	}
	got, err := p.Verify(w.params, w.key, w.pub)
	end := time.Now()
	if err != nil {
		return end, fmt.Errorf("verify proof of line %d: %w", line, err)
	}
	if err := w.check(line, got); err != nil {
		return end, err
	}
	win.proof.record(end.Sub(start))
	if w.traced {
		w.build.record(mid.Sub(start))
		w.vf.record(end.Sub(mid))
		w.split(line, mid.Sub(start))
		w.proofBuf, err = p.Encode(w.proofBuf[:0])
		if err != nil {
			return end, fmt.Errorf("encode proof of line %d: %w", line, err)
		}
		w.proofBytes += uint64(len(w.proofBuf))
		w.proofs++
	}
	return end, nil
}

// resetTrace zeroes the caller's trace measurements.
func (w *worker) resetTrace() {
	w.nonEngine, w.cutWrite, w.build, w.vf = hist{}, hist{}, hist{}, hist{}
	w.proofBytes, w.proofs = 0, 0
}

func (w *worker) check(line uint64, got []byte) error {
	fill(w.want[:], line, w.shadow[line])
	if !bytes.Equal(got, w.want[:]) {
		return fmt.Errorf("line %d: read does not match acknowledged write %d", line, w.shadow[line])
	}
	return nil
}

// split records the part of a round trip spent outside the engine call
// that served it.
func (w *worker) split(line uint64, d time.Duration) {
	if w.timer == nil {
		return
	}
	slot := w.timer.slot(line * lineBytes)
	w.nonEngine.record(d - time.Duration(slot.last.Load()))
}
