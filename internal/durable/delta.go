package durable

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/securemem/morphtree/internal/ckpt"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/wal"
)

// CheckpointDelta cuts an incremental checkpoint: the lines modified since
// the previous checkpoint (full or delta), chained to it by epoch. Unlike
// Checkpoint it does not rotate WAL segments — segments stay keyed to the
// base snapshot's epoch, and recovery replays base + delta chain + the
// segment tail past the chain's covered LSN.
//
// The stall budget is the point: writers are frozen only while the dirty
// lines are copied in memory (copy-on-checkpoint); the WAL fsync that
// makes the covered prefix durable rides the ordinary group-commit path,
// and all delta file I/O happens outside every shard lock. A crash at any
// point leaves either no delta (a .tmp recovery sweeps) or a complete,
// authenticated one; the dirty floor only advances after the rename, so a
// failed cut re-collects the same lines next time.
func (m *Memory) CheckpointDelta() error {
	if m.closed.Load() {
		return fmt.Errorf("durable: delta checkpoint after Close")
	}
	start := time.Now()
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()

	covered := make([]uint64, len(m.commits))
	coveredWrites := make([]uint64, len(m.commits))
	cuts := make([]uint32, len(m.commits))
	oldSeq := m.seq.Load()
	newSeq := oldSeq + 1
	// Sized from the previous cut so the copy inside the freeze rarely
	// has to grow the buffer.
	seg := make([]byte, 0, m.deltaHint)
	total := 0

	// Freeze: sync locks then append locks, matching syncTo's ordering.
	// Only the in-memory dirty copy happens inside; every lock is released
	// before the group-commit fsyncs and file I/O below.
	for _, c := range m.commits {
		c.syncMu.Lock()
	}
	for _, c := range m.commits {
		c.mu.Lock()
	}
	var ferr error
	for i, c := range m.commits {
		if !m.cfg.NoAudit {
			if ferr = c.appendAuditLocked(m); ferr != nil {
				break
			}
		}
		covered[i] = c.lsn
		coveredWrites[i] = c.writes
	}
	if ferr == nil {
		hdr := secmem.SegmentHeader{Seq: newSeq, Base: oldSeq, CoveredLSN: covered, CoveredWrites: coveredWrites}
		seg = secmem.AppendSegmentHeader(seg, hdr, m.sh.Engines())
		for i, c := range m.commits {
			var n int
			seg, cuts[i], n = c.eng.CollectDirty(seg)
			total += n
		}
	}
	for i := len(m.commits) - 1; i >= 0; i-- {
		m.commits[i].mu.Unlock()
	}
	for i := len(m.commits) - 1; i >= 0; i-- {
		m.commits[i].syncMu.Unlock()
	}
	if ferr != nil {
		return ferr
	}
	m.deltaHint = len(seg) + len(seg)/4

	// The delta claims coverage up to covered[i]; fsync that prefix so a
	// post-crash segment never ends below it (replay past the chain needs
	// a contiguous tail). This is a plain group commit — no freeze.
	for i, c := range m.commits {
		if err := c.syncTo(m, covered[i]); err != nil {
			return err
		}
	}

	path := ckpt.DeltaPath(m.cfg.Dir, newSeq, oldSeq)
	err := ckpt.WriteSegmentFile(path, stateKey(m.shcfg.Mem.Key), ckpt.Delta(newSeq, oldSeq), func(w io.Writer) error {
		_, err := w.Write(seg)
		return err
	})
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := wal.SyncDir(m.cfg.Dir); err != nil {
		return err
	}

	// The delta is durable: commit the dirty floor and advance the epoch.
	for i, c := range m.commits {
		c.eng.CommitDirty(cuts[i])
	}
	m.seq.Store(newSeq)
	m.deltaCkpts.Add(1)
	if st, err := os.Stat(path); err == nil {
		m.deltaBytes.Add(uint64(st.Size()))
	}
	var firstErr error
	if err := m.removeEpochsBelow(newSeq); err != nil {
		firstErr = err
	}
	dur := time.Since(start)
	m.deltaLat.Record(dur)
	m.tracer.Emit(obs.KindDeltaCkpt, -1, newSeq, uint64(total), dur)
	return firstErr
}
