package secmem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// State format. Every copy of engine state that leaves an engine — Save,
// durable snapshots and delta checkpoints, migration hibernate streams and
// replica bootstraps — is one state segment (integers little-endian):
//
//	magic "MTSG" | u64 version | u64 seq | u64 base | u64 nshards |
//	u64 capacity | u64 len(org) | org |
//	nshards × (u64 coveredLSN, u64 coveredWrites) |
//	nshards × records
//
//	records: root line (64 B) |
//	         per stored counter level: u64 n | n × (u64 index, 64 B line) |
//	         u64 n | n × (u64 index, 64 B ciphertext, u64 MAC)
//
// A full state lists every stored line; a delta lists the lines dirtied
// since the checkpoint it is based on. A full state is thus the delta
// against the empty base, and one decoder (applyRecords) installs both.
// Seq and base place a segment in a checkpoint chain and are 0 outside
// one; the coverage pairs are the journal positions the state covers and
// are 0 outside the durability layer. Capacity is the total over nshards
// equal engines and org is the counter organization's fingerprint.
//
// The payload carries no authentication of its own. On disk and between
// peers it travels inside the ckpt stream envelope; Save writes the bare
// payload, whose untrusted lines are self-protecting but whose root line
// is only as trustworthy as the channel it travels through.
const (
	segMagic   = "MTSG"
	segVersion = 1
	// segOrgMax bounds the organization fingerprint before allocating.
	segOrgMax = 1 << 10
	// segChunk is how much a full-state writer buffers between writes.
	segChunk = 64 << 10
	// Record sizes: u64 index and line, plus a u64 MAC for data lines.
	ctrRecord  = 8 + LineBytes
	dataRecord = 8 + LineBytes + 8
)

// SegmentHeader is a state segment's chain position and journal coverage.
type SegmentHeader struct {
	// Seq is the segment's checkpoint epoch and Base the epoch it was cut
	// against (0 for a full state).
	Seq, Base uint64
	// CoveredLSN / CoveredWrites are, per shard, the journal positions
	// the state covers. Writers may leave them nil (all zero).
	CoveredLSN, CoveredWrites []uint64
}

// MismatchError reports a state segment whose layout disagrees with the
// engines it is decoded into: the shards, capacity or counter organization
// differ, or the format version is unknown. Decoding such a segment would
// deal lines to the wrong shards or misread their counters, so it is
// rejected before any line is installed; callers tell operator
// misconfiguration apart from corruption by this type.
type MismatchError struct {
	// Field names the disagreeing parameter: "version", "shards",
	// "capacity" or "organization".
	Field string
	// Stream and Config are the segment's and the caller's values; for
	// "organization" they are 0 and StreamOrg / ConfigOrg hold the names.
	Stream, Config       uint64
	StreamOrg, ConfigOrg string
}

// Error implements error.
func (e *MismatchError) Error() string {
	if e.Field == "organization" {
		return fmt.Sprintf("state segment organization %q does not match config %q", e.StreamOrg, e.ConfigOrg)
	}
	return fmt.Sprintf("state segment %s %d does not match config %s %d", e.Field, e.Stream, e.Field, e.Config)
}

func corrupt(reason string) error {
	return &IntegrityError{Level: -1, Reason: "state segment: " + reason}
}

// Save writes the memory's complete state as a one-shard state segment.
func (m *Memory) Save(w io.Writer) error {
	return WriteSegment(w, SegmentHeader{}, []*Memory{m})
}

// Load reconstructs a secure memory from a Save stream. cfg must describe
// the same organization (capacity, counter specs, MAC width) and key the
// state was saved under; the key itself is never stored.
func Load(cfg Config, r io.Reader) (*Memory, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if _, _, err := ReadSegment(r, []*Memory{m}, 0, 0, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// Restore replaces this engine's live state with a Save stream, atomically
// under the engine lock: concurrent readers see either the old state or
// the new one, never a mix. The stream is decoded into a Blank engine
// first, so a malformed stream leaves the live state untouched. Activity
// stats and registered key domains are kept (both derive from config and
// operation counts, not from the shipped state).
func (m *Memory) Restore(r io.Reader) error {
	fresh, err := m.Blank()
	if err != nil {
		return err
	}
	if _, _, err := ReadSegment(r, []*Memory{fresh}, 0, 0, nil); err != nil {
		return err
	}
	m.CommitRestore(fresh)
	return nil
}

// Blank returns an empty engine with m's configuration: the staging area
// a shipped state is decoded into, and authenticated, before
// CommitRestore adopts it.
func (m *Memory) Blank() (*Memory, error) { return New(m.cfg) }

// CommitRestore atomically adopts the state of fresh, a Blank engine that
// no one else uses. Every adopted line is stamped dirty: installed state
// is not covered by this engine's local checkpoint chain, so the next
// incremental checkpoint must capture it in full (a post-install full
// snapshot resets the stamps as usual).
func (m *Memory) CommitRestore(fresh *Memory) {
	m.mu.Lock()
	m.store = fresh.store
	m.root = fresh.root
	m.trusted = fresh.trusted
	m.dirtyData = fresh.dirtyData
	m.dirtyCtr = fresh.dirtyCtr
	m.dirtyCur = fresh.dirtyCur
	m.dirtyFloor = fresh.dirtyFloor
	for idx := range m.store.data {
		m.dirtyData[idx] = m.dirtyCur
	}
	for lvl, level := range m.store.levels {
		for idx := range level {
			m.dirtyCtr[lvl][idx] = m.dirtyCur
		}
	}
	m.mu.Unlock()
}

// AppendSegmentHeader appends the header of a segment over engines (one
// per shard, all alike) to buf. Line records follow it: a full state's
// from WriteSegment, a delta's from each engine's CollectDirty.
func AppendSegmentHeader(buf []byte, hdr SegmentHeader, engines []*Memory) []byte {
	org := engines[0].configFingerprint()
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, segVersion)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, hdr.Base)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(engines)))
	buf = binary.LittleEndian.AppendUint64(buf, segCapacity(engines))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(org)))
	buf = append(buf, org...)
	for i := range engines {
		buf = binary.LittleEndian.AppendUint64(buf, coverage(hdr.CoveredLSN, i))
		buf = binary.LittleEndian.AppendUint64(buf, coverage(hdr.CoveredWrites, i))
	}
	return buf
}

func coverage(v []uint64, i int) uint64 {
	if v == nil {
		return 0
	}
	return v[i]
}

func segCapacity(engines []*Memory) uint64 {
	return uint64(len(engines)) * engines[0].cfg.MemoryBytes
}

// WriteSegment writes the full state of engines (one per shard) as a
// segment to w. Each engine is captured under its own lock; callers that
// need one cut across shards freeze their writers around the call.
func WriteSegment(w io.Writer, hdr SegmentHeader, engines []*Memory) error {
	buf := AppendSegmentHeader(make([]byte, 0, 4<<10), hdr, engines)
	for _, m := range engines {
		m.mu.Lock()
		var err error
		buf, _, err = m.appendRecords(buf, false, w)
		m.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("secmem: save: %w", err)
	}
	return nil
}

// appendRecords appends m's line records to buf: every stored line, or,
// with dirty set, the lines stamped at or above the dirty floor. The root
// line always leads. With w set, buf is written out whenever it passes
// segChunk bytes, so a full state streams in bounded memory; dirty records
// stay in buf. It returns the number of records. Callers hold m.mu.
func (m *Memory) appendRecords(buf []byte, dirty bool, w io.Writer) ([]byte, int, error) {
	buf = append(buf, m.root.Encode()...)
	records := 1
	for lvl, stamps := range m.dirtyCtr {
		var n int
		var err error
		if buf, n, err = m.appendList(buf, stamps, m.store.levels[lvl], nil, dirty, w); err != nil {
			return buf, records, err
		}
		records += n
	}
	buf, n, err := m.appendList(buf, m.dirtyData, m.store.data, m.store.dataMAC, dirty, w)
	return buf, records + n, err
}

// appendList appends one record list: a count, then (index, line) — plus
// the MAC, for data lines (macs non-nil) — for each selected line, in
// index order, so the output is deterministic. A full list's count is its
// map size up front, which only lines planted outside the geometry through
// the adversary interface can contradict; a dirty list's count is patched
// in at the end (dirty records are never flushed mid-list).
func (m *Memory) appendList(buf []byte, stamps []uint32, lines map[uint64][]byte, macs map[uint64]uint64, dirty bool, w io.Writer) ([]byte, int, error) {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(lines)))
	n := 0
	for i, s := range stamps {
		if !dirty && n == len(lines) {
			break
		}
		if dirty && s < m.dirtyFloor {
			continue
		}
		idx := uint64(i)
		raw, ok := lines[idx]
		if !ok {
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, idx)
		buf = appendLine(buf, raw)
		if macs != nil {
			buf = binary.LittleEndian.AppendUint64(buf, macs[idx])
		}
		n++
		if w != nil && len(buf) >= segChunk {
			if _, err := w.Write(buf); err != nil {
				return buf, n, fmt.Errorf("secmem: save: %w", err)
			}
			buf = buf[:0]
		}
	}
	switch {
	case dirty:
		binary.LittleEndian.PutUint64(buf[at:], uint64(n))
	case n != len(lines):
		return buf, n, fmt.Errorf("secmem: save: %d of %d stored lines lie outside the geometry", len(lines)-n, len(lines))
	}
	return buf, n, nil
}

// appendLine appends exactly one line: lines of the wrong length, which
// only the adversary interface can store, are cut or zero-padded (their
// MACs fail on read either way).
func appendLine(buf, raw []byte) []byte {
	if len(raw) == LineBytes {
		return append(buf, raw...)
	}
	var line [LineBytes]byte
	copy(line[:], raw)
	return append(buf, line[:]...)
}

// ReadSegment decodes a state segment from r into engines, one per shard,
// and returns its header and the number of line records it installed
// (root lines included). The header must name the chain position seq ←
// base and match the engines' shard count, capacity and organization
// (else *MismatchError). Every count is bounded by the tree geometry
// before anything is allocated; a malformed payload is an
// *IntegrityError. Fresh engines receive a full state, live ones a delta
// on top of their base. onData, if set, sees every installed data line.
//
// ReadSegment trusts nothing it has not bounded, but it authenticates
// nothing either: callers reading from disk or a peer wrap r in the ckpt
// stream envelope and verify its trailer before adopting the engines.
// Reads go through one bufio.Reader (r itself, if it is one).
func ReadSegment(r io.Reader, engines []*Memory, seq, base uint64, onData func(shard int, idx uint64)) (SegmentHeader, int, error) {
	br := bufio.NewReader(r)
	hdr, err := readSegmentHeader(br, engines, seq, base)
	if err != nil {
		return hdr, 0, err
	}
	records := 0
	for i, m := range engines {
		n, err := m.applyRecords(br, i, onData)
		records += n
		if err != nil {
			return hdr, records, err
		}
	}
	return hdr, records, nil
}

func readSegmentHeader(br *bufio.Reader, engines []*Memory, seq, base uint64) (SegmentHeader, error) {
	var hdr SegmentHeader
	var fixed [len(segMagic) + 6*8]byte
	if err := readFull(br, fixed[:]); err != nil {
		return hdr, err
	}
	if string(fixed[:len(segMagic)]) != segMagic {
		return hdr, corrupt("bad magic")
	}
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(fixed[len(segMagic)+8*i:]) }
	if v := field(0); v != segVersion {
		return hdr, &MismatchError{Field: "version", Stream: v, Config: segVersion}
	}
	hdr.Seq, hdr.Base = field(1), field(2)
	if hdr.Seq != seq || hdr.Base != base {
		return hdr, corrupt(fmt.Sprintf("chain position %d←%d, want %d←%d", hdr.Seq, hdr.Base, seq, base))
	}
	if n := field(3); n != uint64(len(engines)) {
		return hdr, &MismatchError{Field: "shards", Stream: n, Config: uint64(len(engines))}
	}
	if c, want := field(4), segCapacity(engines); c != want {
		return hdr, &MismatchError{Field: "capacity", Stream: c, Config: want}
	}
	orgLen := field(5)
	if orgLen > segOrgMax {
		return hdr, corrupt(fmt.Sprintf("organization name of %d bytes", orgLen))
	}
	org := make([]byte, orgLen)
	if err := readFull(br, org); err != nil {
		return hdr, err
	}
	if want := engines[0].configFingerprint(); string(org) != want {
		return hdr, &MismatchError{Field: "organization", StreamOrg: string(org), ConfigOrg: want}
	}
	hdr.CoveredLSN = make([]uint64, len(engines))
	hdr.CoveredWrites = make([]uint64, len(engines))
	var pos [16]byte
	for i := range engines {
		if err := readFull(br, pos[:]); err != nil {
			return hdr, err
		}
		hdr.CoveredLSN[i] = binary.LittleEndian.Uint64(pos[0:])
		hdr.CoveredWrites[i] = binary.LittleEndian.Uint64(pos[8:])
	}
	return hdr, nil
}

// applyRecords is the one decoder of line records: it installs one
// engine's records from br, into a fresh engine (a full state) or a live
// one (a delta on top of its base) alike. The root line replaces the
// on-chip root and drops the whole trusted cache, since every cached block
// chains to it. Installed lines keep their dirty stamps: the checkpoint
// chain already covers them.
func (m *Memory) applyRecords(br *bufio.Reader, shard int, onData func(int, uint64)) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var root [LineBytes]byte
	if err := readFull(br, root[:]); err != nil {
		return 0, err
	}
	blk, err := m.cfg.specAt(m.geom.RootLevel()).Decode(root[:])
	if err != nil {
		return 0, corrupt(fmt.Sprintf("root line: %v", err))
	}
	m.root = blk
	m.flushMetadataCache()
	records := 1
	for lvl := range m.store.levels {
		n, err := readList(br, fmt.Sprintf("level-%d", lvl), m.geom.LevelEntries(lvl), &m.store.levels[lvl], nil, nil)
		records += n
		if err != nil {
			return records, err
		}
	}
	var onLine func(uint64)
	if onData != nil {
		onLine = func(idx uint64) { onData(shard, idx) }
	}
	n, err := readList(br, "data", m.geom.DataLines, &m.store.data, &m.store.dataMAC, onLine)
	return records + n, err
}

// readList installs one record list into *lines (and, for data lines,
// *macs), bounding its count and every index by size before allocating.
// An empty map is replaced by one sized for the list, and the list's lines
// share one allocation. onLine, if set, sees each installed index.
func readList(br *bufio.Reader, what string, size uint64, lines *map[uint64][]byte, macs *map[uint64]uint64, onLine func(uint64)) (int, error) {
	n, err := readCount(br, size, what)
	if err != nil {
		return 0, err
	}
	recLen := ctrRecord
	if macs != nil {
		recLen = dataRecord
		if len(*macs) == 0 {
			*macs = make(map[uint64]uint64, n)
		}
	}
	if len(*lines) == 0 {
		*lines = make(map[uint64][]byte, n)
	}
	slab := make([]byte, n*LineBytes)
	var rec [dataRecord]byte
	for j := uint64(0); j < n; j++ {
		if err := readFull(br, rec[:recLen]); err != nil {
			return int(j), err
		}
		idx := binary.LittleEndian.Uint64(rec[:8])
		if idx >= size {
			return int(j), corrupt(fmt.Sprintf("%s line %d beyond the level's %d lines", what, idx, size))
		}
		line := slab[j*LineBytes : (j+1)*LineBytes : (j+1)*LineBytes]
		copy(line, rec[8:8+LineBytes])
		(*lines)[idx] = line
		if macs != nil {
			(*macs)[idx] = binary.LittleEndian.Uint64(rec[8+LineBytes:])
		}
		if onLine != nil {
			onLine(idx)
		}
	}
	return int(n), nil
}

// readCount reads a record count and bounds it by limit.
func readCount(br *bufio.Reader, limit uint64, what string) (uint64, error) {
	var b [8]byte
	if err := readFull(br, b[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint64(b[:])
	if n > limit {
		return 0, corrupt(fmt.Sprintf("%s count %d exceeds %d", what, n, limit))
	}
	return n, nil
}

// readFull reads exactly len(p) bytes: a short payload is corruption, and
// an *IntegrityError from an authenticating reader passes through as is.
func readFull(r io.Reader, p []byte) error {
	_, err := io.ReadFull(r, p)
	var ie *IntegrityError
	switch {
	case err == nil, errors.As(err, &ie):
		return err
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return corrupt("truncated")
	}
	return fmt.Errorf("secmem: read state segment: %w", err)
}

// configFingerprint names the counter organization (keys excluded).
func (m *Memory) configFingerprint() string {
	fp := m.cfg.Enc.Name
	for _, s := range m.cfg.Tree {
		fp += "/" + s.Name
	}
	return fmt.Sprintf("%s@%d", fp, m.keyer.Width())
}
