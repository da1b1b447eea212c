package secmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// record is one line record of a CollectDirty capture: level -1 is a data
// line, RootLevel the root.
type record struct {
	Level int32
	Index uint64
}

func collectAll(m *Memory) (uint32, []record) {
	buf, cut, n := m.CollectDirty(nil)
	recs := parseRecords(m, buf)
	if len(recs) != n {
		panic("CollectDirty record count disagrees with its buffer")
	}
	return cut, recs
}

// parseRecords walks one engine's records in the state-segment layout.
func parseRecords(m *Memory, buf []byte) []record {
	out := []record{{Level: int32(m.geom.RootLevel())}}
	buf = buf[LineBytes:]
	list := func(level int32, size int) {
		n := binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
		for j := uint64(0); j < n; j++ {
			out = append(out, record{Level: level, Index: binary.LittleEndian.Uint64(buf)})
			buf = buf[size:]
		}
	}
	for lvl := 0; lvl < m.geom.RootLevel(); lvl++ {
		list(int32(lvl), ctrRecord)
	}
	list(-1, dataRecord)
	if len(buf) != 0 {
		panic("trailing bytes after the records")
	}
	return out
}

func TestDirtyCollectCommitCycle(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	m := mustNew(t, cfg)

	// Fresh engine: nothing dirty, collection holds only the root.
	if n := m.DirtyCount(); n != 0 {
		t.Fatalf("fresh engine dirty count = %d, want 0", n)
	}
	cut, lines := collectAll(m)
	if len(lines) != 1 || lines[0].Level != int32(m.geom.RootLevel()) {
		t.Fatalf("fresh collection = %d lines, want root only", len(lines))
	}
	m.CommitDirty(cut)

	// A handful of writes dirty exactly those data lines plus ancestors.
	for i := uint64(0); i < 8; i++ {
		if err := m.Write(i*64, line(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.DirtyCount(); n == 0 {
		t.Fatal("writes left dirty count at 0")
	}
	cut, lines = collectAll(m)
	var data, ctr int
	for _, d := range lines {
		switch {
		case d.Level == -1:
			data++
		case d.Level < int32(m.geom.RootLevel()):
			ctr++
		}
	}
	if data != 8 {
		t.Fatalf("collected %d data lines, want 8", data)
	}
	if ctr == 0 {
		t.Fatal("no counter lines collected despite tree updates")
	}

	// Without commit, the same dirt is re-collected (failed persist path).
	_, again := collectAll(m)
	if len(again) != len(lines) {
		t.Fatalf("uncommitted re-collection = %d lines, want %d", len(again), len(lines))
	}

	// After commit, the set drains to root-only.
	m.CommitDirty(cut)
	if n := m.DirtyCount(); n != 0 {
		t.Fatalf("post-commit dirty count = %d, want 0", n)
	}
	_, drained := collectAll(m)
	if len(drained) != 1 {
		t.Fatalf("post-commit collection = %d lines, want root only", len(drained))
	}
}

func TestDirtyWriteDuringCollectLandsInNextCut(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	m := mustNew(t, cfg)
	if err := m.Write(0, line(1)); err != nil {
		t.Fatal(err)
	}
	cut, _ := collectAll(m)
	// Write after the cut: stamped at the advanced epoch, so committing
	// the old cut must not mark it clean.
	if err := m.Write(64, line(2)); err != nil {
		t.Fatal(err)
	}
	m.CommitDirty(cut)
	_, next := collectAll(m)
	found := false
	for _, d := range next {
		if d.Level == -1 && d.Index == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("write racing a collection was lost from the next cut")
	}
}

func TestDirtyResetClearsAll(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	m := mustNew(t, cfg)
	for i := uint64(0); i < 16; i++ {
		if err := m.Write(i*64, line(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	m.ResetDirty()
	if n := m.DirtyCount(); n != 0 {
		t.Fatalf("dirty count after reset = %d, want 0", n)
	}
}

// TestDirtyDeltaApplyRoundTrip proves the delta path reconstructs state:
// collect dirty lines from a mutated engine, apply them onto a stale copy,
// and every line must read back verified and equal.
func TestDirtyDeltaApplyRoundTrip(t *testing.T) {
	for _, name := range []string{"SC-64", "MorphCtr-128", "MorphCtr-128-ZCC"} {
		t.Run(name, func(t *testing.T) {
			cfg := configs(1 << 20)[name]
			m := mustNew(t, cfg)
			for i := uint64(0); i < 64; i++ {
				if err := m.Write(i*64*3%(1<<20)&^63, line(byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			// Base snapshot, then more writes → the delta.
			var base bytes.Buffer
			if err := m.Save(&base); err != nil {
				t.Fatal(err)
			}
			m.ResetDirty()
			for i := uint64(64); i < 96; i++ {
				if err := m.Write(i*64*3%(1<<20)&^63, line(byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			delta := AppendSegmentHeader(nil, SegmentHeader{Seq: 2, Base: 1}, []*Memory{m})
			delta, _, _ = m.CollectDirty(delta)

			stale, err := Load(cfg, &base)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the stale engine's trusted cache, so the apply must
			// drop what it supersedes.
			if _, err := stale.Read(0); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ReadSegment(bytes.NewReader(delta), []*Memory{stale}, 2, 1, nil); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 96; i++ {
				addr := i * 64 * 3 % (1 << 20) &^ 63
				want, err := m.Read(addr)
				if err != nil {
					t.Fatal(err)
				}
				got, err := stale.Read(addr)
				if err != nil {
					t.Fatalf("read %#x after delta apply: %v", addr, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("line %#x mismatch after delta apply", addr)
				}
			}
		})
	}
}

// TestApplyRecordsRejectsBadInput: the one record decoder refuses a line
// at a level index beyond that level, a data index beyond capacity, a
// count beyond the geometry and a short line, each as an IntegrityError.
func TestApplyRecordsRejectsBadInput(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	m := mustNew(t, cfg)
	u64 := binary.LittleEndian.AppendUint64
	// segment builds a one-shard segment whose stored counter levels are
	// empty except for level ctrLvl, which gets ctr, followed by data.
	segment := func(ctrLvl int, ctr, data []byte) []byte {
		buf := AppendSegmentHeader(nil, SegmentHeader{}, []*Memory{m})
		buf = append(buf, m.root.Encode()...)
		for lvl := 0; lvl < m.geom.RootLevel(); lvl++ {
			if lvl == ctrLvl {
				buf = append(buf, ctr...)
				continue
			}
			buf = u64(buf, 0)
		}
		return append(buf, data...)
	}
	line := make([]byte, LineBytes)
	top := m.geom.RootLevel() - 1
	cases := map[string][]byte{
		"bad level":             segment(top, append(u64(u64(nil, 1), m.geom.LevelEntries(top)), line...), u64(nil, 0)),
		"out-of-range index":    segment(-1, nil, append(u64(u64(nil, 1), 1<<40), append(line, make([]byte, 8)...)...)),
		"count beyond geometry": segment(-1, nil, u64(nil, 1<<32)),
		"short line":            segment(-1, nil, append(u64(u64(nil, 1), 0), 3, 4, 5)),
	}
	for name, raw := range cases {
		_, _, err := ReadSegment(bytes.NewReader(raw), []*Memory{mustNew(t, cfg)}, 0, 0, nil)
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: got %v, want IntegrityError", name, err)
		}
	}
	// The same helper with a well-formed line list decodes cleanly.
	ok := segment(-1, nil, append(u64(u64(nil, 1), 0), append(line, make([]byte, 8)...)...))
	if _, _, err := ReadSegment(bytes.NewReader(ok), []*Memory{mustNew(t, cfg)}, 0, 0, nil); err != nil {
		t.Fatalf("well-formed segment: %v", err)
	}
}

func TestRestoreSwapsStateAtomically(t *testing.T) {
	cfg := configs(1 << 20)["MorphCtr-128"]
	donor := mustNew(t, cfg)
	for i := uint64(0); i < 32; i++ {
		if err := donor.Write(i*64, line(byte(i+100))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatal(err)
	}

	recip := mustNew(t, cfg)
	if err := recip.Write(0, line(7)); err != nil {
		t.Fatal(err)
	}
	if err := recip.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		got, err := recip.Read(i * 64)
		if err != nil {
			t.Fatalf("read after restore: %v", err)
		}
		if !bytes.Equal(got, line(byte(i+100))) {
			t.Fatalf("line %d mismatch after restore", i)
		}
	}
	// Restored engine stays writable and verifying.
	if err := recip.Write(64, line(42)); err != nil {
		t.Fatal(err)
	}

	// A malformed stream must leave live state untouched.
	if err := recip.Restore(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage restore accepted")
	}
	got, err := recip.Read(64)
	if err != nil || !bytes.Equal(got, line(42)) {
		t.Fatalf("live state damaged by failed restore: %v", err)
	}
}
