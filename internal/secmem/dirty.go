package secmem

// Dirty-line tracking: every store mutation stamps the line with the
// engine's current dirty epoch, so an incremental checkpoint can collect
// exactly the lines modified since the last committed collection. The
// stamps are preallocated flat arrays indexed by line number — the write
// path cost is one slice store, no allocation, no branch on a map — which
// keeps the //morph:hotpath contract intact (see internal/ckpt and
// DESIGN.md §17).
//
// The protocol is two-phase so a failed checkpoint never loses dirt:
// CollectDirty snapshots the dirty set under the engine lock and advances
// the current epoch (writes racing the checkpoint land in the NEXT
// collection), but the floor only moves when CommitDirty confirms the
// delta reached stable storage. A crash or write error between the two
// re-collects the same lines next time.

// initDirty sizes the stamp arrays from the geometry. Epoch 0 means
// never-written (clean); the live epoch starts at 1.
func (m *Memory) initDirty() {
	m.dirtyData = make([]uint32, m.geom.DataLines)
	m.dirtyCtr = make([][]uint32, m.geom.RootLevel())
	for lvl := range m.dirtyCtr {
		m.dirtyCtr[lvl] = make([]uint32, m.geom.LevelEntries(lvl))
	}
	m.dirtyCur = 1
	m.dirtyFloor = 1
}

// CollectDirty appends the line records of every line modified since the
// last committed collection (plus the root line, always) to buf, in the
// state-segment layout (see segment.go), and returns the grown buffer,
// the cut epoch and the number of records. The capture runs entirely
// under the engine lock, so it is a consistent point-in-time cut. Lines
// written after CollectDirty returns carry a later stamp and belong to the
// next collection. The dirty floor does NOT advance until CommitDirty(cut)
// — if persisting the collection fails, the same lines are re-collected.
func (m *Memory) CollectDirty(buf []byte) ([]byte, uint32, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cut := m.dirtyCur
	m.dirtyCur++
	buf, n, _ := m.appendRecords(buf, true, nil)
	return buf, cut, n
}

// CommitDirty marks the collection at cut as durably persisted: lines
// stamped at or below cut are clean from now on.
func (m *Memory) CommitDirty(cut uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cut+1 > m.dirtyFloor {
		m.dirtyFloor = cut + 1
	}
}

// ResetDirty marks the entire current state clean — a full snapshot has
// captured everything, so the next incremental collection starts empty.
func (m *Memory) ResetDirty() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirtyCur++
	m.dirtyFloor = m.dirtyCur
}

// DirtyCount returns how many lines the next CollectDirty would capture,
// excluding the always-included root line (tests and the checkpoint
// runner's pacing heuristics use it).
func (m *Memory) DirtyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, stamps := range m.dirtyCtr {
		for _, s := range stamps {
			if s >= m.dirtyFloor {
				n++
			}
		}
	}
	for _, s := range m.dirtyData {
		if s >= m.dirtyFloor {
			n++
		}
	}
	return n
}
