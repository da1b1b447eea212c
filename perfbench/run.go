package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
)

const (
	lineBytes    = shard.LineBytes
	shards       = 4
	workers      = 2 // closed-loop callers: connections or goroutines
	organization = "morph128"

	setupReps = 21 // setups per run; setup_s is their median
	// A run restarts the store again and again for recoverFor, and at
	// least minRecovers times; recover_s is the interquartile mean of the
	// restarts. Spread over seconds, they average over the host's load,
	// which drifts on that scale.
	recoverFor  = 3 * time.Second
	minRecovers = 5
	// warmOps is how many ops each caller issues before the timed loop.
	// The state they leave depends on the seed alone, so heap_mb and the
	// volatile stores' recover_s are measured on it. After the timed loop
	// the store holds as many distinct lines as the run reached, so there
	// they would follow throughput.
	warmOps = 1 << 16
	// windows is how many equal time slices a timed loop is split into;
	// ops_per_s and every latency quantile are medians over the slices,
	// so a burst of interference from outside moves one slice, not the
	// result.
	windows = 15

	// Durable workloads cut a delta checkpoint every cutEvery acknowledged
	// writes.
	cutEvery = 4096
	// tailWrites is the fixed crash point: after the timed loop the run
	// compacts, then issues this many more writes (two cuts and a half
	// interval of WAL tail) before it stops the engine.
	tailWrites = 2*cutEvery + cutEvery/2
)

// workload is one seeded, closed-loop traffic mix against one stack.
type workload struct {
	name       string
	capacity   uint64  // protected bytes (the address span)
	writePct   int     // percent of ops that are writes
	proofEvery int     // one read in proofEvery is a verified PROOF read
	zipfS      float64 // Zipf exponent over lines; 0 = uniform
	wire       bool    // behind server.New over loopback TCP
	durable    bool    // durable.Memory, WAL synced at each delta cut
}

var workloads = []*workload{
	{name: "serve_read", capacity: 4 << 20, writePct: 10, proofEvery: 16, wire: true},
	{name: "engine_write", capacity: 64 << 20, writePct: 90, proofEvery: 16, zipfS: 1.1},
	{name: "durable_write", capacity: 4 << 20, writePct: 80, proofEvery: 4, wire: true, durable: true},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is everything one run measured.
type result struct {
	attempted, failed uint64
	errs              []error

	ops     uint64 // in the timed loop
	elapsed time.Duration
	wins    []window // per time slice, merged over callers
	winDur  time.Duration
	total   window // the whole loop
	setups  []time.Duration
	recover []time.Duration
	heap    float64 // bytes
	stored  float64 // data-directory bytes per distinct user byte
	stats   secmem.Stats
	issued  []uint64 // per caller, digest of the ops it issued

	layers map[string]float64 // traced runs only
}

func (r *result) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err)
}

// runOnce sets up the workload, warms it up with a fixed number of ops,
// runs it closed-loop for dur (or, when maxOps > 0, warms up and runs
// exactly maxOps ops per caller each), stops and restarts it, and checks
// every acknowledged write, ending with a tamper probe.
func runOnce(w *workload, seed uint64, dur time.Duration, maxOps uint64, traced bool, workdir string) (*result, error) {
	res := &result{}
	// Start from a quiet disk: write back (and, on file systems mounted
	// with discard, trim) what earlier runs left behind, so that work does
	// not land in this run's fsyncs.
	syscall.Sync()
	// Harness state exists before the heap baseline and setup clock.
	shadow := make([]uint32, w.capacity/lineBytes)
	var warmShadow []uint32 // the shadow model at the end of the warm-up
	if !w.durable {
		warmShadow = make([]uint32, len(shadow))
	}
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = &worker{id: i, g: newGen(w, seed, i, workers), shadow: shadow, traced: traced, wins: make([]window, windows), issued: fnvOffset}
	}

	var st *stack
	var heap0 runtime.MemStats
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", w.name, i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		// Each setup starts from a heap with no free spans, as a fresh
		// process would, instead of reusing what the last setup left.
		debug.FreeOSMemory()
		if i == setupReps-1 {
			runtime.ReadMemStats(&heap0)
		}
		start := time.Now()
		s, err := newStack(w, seed, dir, traced)
		res.setups = append(res.setups, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i < setupReps-1 {
			if err := s.teardown(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		st = s
		defer os.RemoveAll(dir)
	}
	defer st.teardown()
	for i, wk := range ws {
		wk.tg, wk.params, wk.key, wk.pub, wk.timer = st.target(i), st.params, st.key, st.pub, st.timer
	}

	warm := uint64(warmOps)
	if maxOps > 0 {
		warm = maxOps
	}
	cut := newCutter(st, ws)
	runWorkers(ws, time.Time{}, warm)
	cut.stop()
	for _, wk := range ws {
		if wk.err != nil {
			res.fail(wk.err)
		}
	}
	if cut.err != nil {
		res.fail(cut.err)
	}
	if res.failed > 0 {
		for _, wk := range ws {
			res.attempted += wk.ops
		}
		return res, nil
	}
	runtime.GC()
	var heap1 runtime.MemStats
	runtime.ReadMemStats(&heap1)
	res.heap = float64(heap1.HeapAlloc) - float64(heap0.HeapAlloc)
	warmState := filepath.Join(workdir, w.name+".warm")
	if st.mem == nil {
		copy(warmShadow, shadow)
		if err := saveFile(st.sh, warmState); err != nil {
			return nil, err
		}
		defer os.Remove(warmState)
	}
	for _, wk := range ws {
		clear(wk.wins)
	}

	var m0 mark
	if traced {
		// Per-layer metrics cover the timed loop alone.
		m0.snap = st.reg.Snapshot()
		st.resetTrace()
		for _, wk := range ws {
			wk.resetTrace()
		}
	}
	cut = newCutter(st, ws)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&m0.mem)
	if st.mem != nil {
		m0.dur = st.mem.Durability()
	}
	start := time.Now()
	var deadline time.Time
	if maxOps == 0 {
		deadline = start.Add(dur)
		res.winDur = dur / windows
	}
	for _, wk := range ws {
		wk.t0, wk.winDur = start, res.winDur
	}
	var limit uint64 // ops per caller at the end of the loop; 0: none
	if maxOps > 0 {
		limit = warm + maxOps
	}
	runWorkers(ws, deadline, limit)
	res.elapsed = time.Since(start)
	cut.stop()
	runtime.ReadMemStats(&ms1)
	res.stats = st.sh.Stats()
	res.wins = make([]window, windows)
	for _, wk := range ws {
		res.ops += wk.ops - warm
		res.attempted += wk.ops
		res.issued = append(res.issued, wk.issued)
		for i := range wk.wins {
			res.wins[i].merge(&wk.wins[i])
			res.total.merge(&wk.wins[i])
		}
		if wk.err != nil {
			res.fail(wk.err)
		}
	}
	if cut.err != nil {
		res.fail(cut.err)
	}
	if traced {
		res.layers = layerMetrics(st, ws, res, &m0, &ms1, cut)
	}
	if res.failed > 0 {
		return res, nil
	}

	var distinct float64
	for _, v := range shadow {
		if v != 0 {
			distinct += lineBytes
		}
	}
	budget := recoverFor
	if maxOps > 0 {
		budget = 0 // fixed-count runs restart minRecovers times
	}
	if st.mem != nil {
		return res, restartDurable(st, ws, res, distinct, budget)
	}
	return res, restartVolatile(st, ws, warmShadow, warmState, res, workdir, distinct, budget)
}

// mark holds the program's counters at the start of the timed loop.
type mark struct {
	mem  runtime.MemStats
	dur  durable.Stats
	snap obs.Snapshot
}

func runWorkers(ws []*worker, deadline time.Time, maxOps uint64) {
	var wg sync.WaitGroup
	for _, wk := range ws {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.run(deadline, maxOps)
		}(wk)
	}
	wg.Wait()
}

// cutter is the durable workloads' checkpoint goroutine: it cuts a delta
// each time the callers signal another cutEvery acknowledged writes.
type cutter struct {
	st    *stack
	acked atomic.Uint64
	gen   atomic.Uint64
	c     chan struct{}
	done  chan struct{}

	deltas     hist
	deltaLines uint64
	err        error
}

// newCutter starts a cutter that the callers ws signal.
func newCutter(st *stack, ws []*worker) *cutter {
	cut := &cutter{st: st, c: make(chan struct{}, 1), done: make(chan struct{})}
	if st.mem == nil {
		close(cut.done)
		return cut
	}
	for _, wk := range ws {
		wk.acked, wk.cutc, wk.cutGen = &cut.acked, cut.c, &cut.gen
	}
	go cut.loop()
	return cut
}

func (c *cutter) loop() {
	defer close(c.done)
	for range c.c {
		c.gen.Add(1)
		start := time.Now()
		err := c.st.mem.CheckpointDelta()
		if err == nil {
			c.deltas.record(time.Since(start))
			if c.st.tracer != nil {
				c.deltaLines += deltaLines(c.st.tracer, c.st.mem.Seq())
			}
		}
		c.gen.Add(1)
		if err != nil && c.err == nil {
			c.err = fmt.Errorf("checkpoint: %w", err)
		}
	}
}

// stop ends the loop and waits for any cut in progress.
func (c *cutter) stop() {
	if c.st.mem != nil {
		close(c.c)
	}
	<-c.done
}

// deltaLines reads the dirty-line count of delta epoch seq from the trace.
func deltaLines(t *obs.Tracer, seq uint64) uint64 {
	evs := t.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == obs.KindDeltaCkpt && evs[i].A == seq {
			return evs[i].B
		}
	}
	return 0
}

// tamperProbe flips a stored bit of an acknowledged line through the
// engine's adversary interface; the next read of the line through read
// must fail with a typed *secmem.IntegrityError.
func tamperProbe(eng server.Engine, read func(uint64) ([]byte, error), shadow []uint32) error {
	line := slices.IndexFunc(shadow, func(v uint32) bool { return v != 0 })
	if line < 0 {
		return errors.New("tamper probe: no acknowledged write to tamper with")
	}
	addr := uint64(line) * lineBytes
	if !eng.FlipDataBit(addr, 0, 1) {
		return fmt.Errorf("tamper probe: line %d not in the store", line)
	}
	_, err := read(addr)
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		return fmt.Errorf("tamper probe: read of tampered line %d returned %v, want *secmem.IntegrityError", line, err)
	}
	return nil
}

// restartVolatile saves the volatile store's state (shard.Save, the
// format of the wire SNAPSHOT op), probes tampering on the live server,
// restores the saved state with shard.Load and checks every acknowledged
// write on it. It then times restoring the state saved after the warm-up,
// whose size the seed alone sets, and checks that one against the
// warm-up's shadow model.
func restartVolatile(st *stack, ws []*worker, warmShadow []uint32, warmState string, res *result, workdir string, distinct float64, budget time.Duration) error {
	shadow := ws[0].shadow
	path := filepath.Join(workdir, st.w.name+".state")
	defer os.Remove(path)
	if err := saveFile(st.sh, path); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.stored = float64(fi.Size()) / distinct

	read := st.sh.Read
	if st.w.wire {
		read = st.clients[0].Read
	}
	res.attempted++
	if err := tamperProbe(st.sh, read, shadow); err != nil {
		res.fail(err)
	}
	if err := st.teardown(); err != nil {
		return err
	}
	dropTargets(ws)
	sh, err := loadFile(st.cfg, path)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	n, err := checkAcked(sh.Read, shadow)
	res.attempted += n
	if err != nil {
		res.fail(fmt.Errorf("after restore: %w", err))
	}
	begin := time.Now()
	for i := 0; i < minRecovers || time.Since(begin) < budget; i++ {
		runtime.GC()
		start := time.Now()
		sh, err := loadFile(st.cfg, warmState)
		res.recover = append(res.recover, time.Since(start))
		if err != nil {
			return fmt.Errorf("restore warm-up state: %w", err)
		}
		if i == 0 {
			n, err := checkAcked(sh.Read, warmShadow)
			res.attempted += n
			if err != nil {
				res.fail(fmt.Errorf("after restoring the warm-up state: %w", err))
			}
		}
	}
	return nil
}

func saveFile(sh *shard.Sharded, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := sh.Save(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadFile(cfg shard.Config, path string) (*shard.Sharded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg.Obs = nil
	return shard.Load(cfg, bufio.NewReader(f))
}

// restartDurable brings the store to a fixed crash point (a compacting
// checkpoint, then tailWrites more writes with delta cuts on the usual
// cadence), stops it with Close, which flushes the WAL but cuts no
// checkpoint, and times durable.Open on the directory. Recovery leaves
// the directory as it found it, so each restart recovers the same state.
func restartDurable(st *stack, ws []*worker, res *result, distinct float64, budget time.Duration) error {
	if err := st.mem.Checkpoint(); err != nil {
		return fmt.Errorf("compacting checkpoint: %w", err)
	}
	tail := newCutter(st, ws)
	for _, wk := range ws {
		wk.winDur = 0
	}
	var before uint64
	for _, wk := range ws {
		before += wk.ops
	}
	var wg sync.WaitGroup
	for _, wk := range ws {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for tail.acked.Load() < tailWrites && wk.err == nil {
				wk.run(time.Time{}, wk.ops+1)
			}
		}(wk)
	}
	wg.Wait()
	tail.stop()
	for _, wk := range ws {
		res.attempted += wk.ops
		if wk.err != nil {
			res.fail(wk.err)
		}
	}
	res.attempted -= before
	if res.failed > 0 {
		return nil
	}
	if tail.err != nil {
		res.fail(tail.err)
		return nil
	}
	tailAcked := tail.acked.Load()

	dir := st.dcfg.Dir
	if err := st.teardown(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	dropTargets(ws)
	total, wal, err := dirBytes(dir)
	if err != nil {
		return err
	}
	res.stored = float64(total) / distinct
	if res.layers != nil {
		res.layers["wal.bytes_per_user_byte"] = float64(wal) / float64(tailAcked*lineBytes)
	}

	dcfg := st.dcfg
	dcfg.Obs, dcfg.Tracer = nil, nil
	cfg := st.cfg
	cfg.Obs = nil
	begin := time.Now()
	for i := 0; i < minRecovers || time.Since(begin) < budget; i++ {
		runtime.GC()
		start := time.Now()
		mem, info, err := durable.Open(cfg, dcfg)
		res.recover = append(res.recover, time.Since(start))
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		if i == 0 {
			if res.layers != nil {
				res.layers["durable.replayed_records"] = float64(info.ReplayedRecords)
				res.layers["durable.recovery_verified_lines"] = float64(info.SampleVerified)
			}
			n, err := checkAcked(mem.Read, ws[0].shadow)
			res.attempted += n
			if err != nil {
				res.fail(fmt.Errorf("after recovery: %w", err))
			}
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("close recovered store: %w", err)
		}
	}
	mem, _, err := durable.Open(cfg, dcfg)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	res.attempted++
	if err := tamperProbe(mem, mem.Read, ws[0].shadow); err != nil {
		res.fail(err)
	}
	return mem.Close()
}

// dropTargets drops the callers' references to a stopped stack.
func dropTargets(ws []*worker) {
	for _, wk := range ws {
		wk.tg = nil
	}
}

// dirBytes sums the sizes of a data directory's files, and of its WAL
// segments alone.
func dirBytes(dir string) (total, wal int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		total += fi.Size()
		if strings.HasPrefix(e.Name(), "wal.") {
			wal += fi.Size()
		}
	}
	return total, wal, nil
}
