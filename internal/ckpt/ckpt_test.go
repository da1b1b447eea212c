package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/secmem"
)

var testKey = bytes.Repeat([]byte{7}, 32)

func TestStreamRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 100, ChunkBytes, ChunkBytes + 1, 3*ChunkBytes + 17} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var buf bytes.Buffer
		sw, err := NewStreamWriter(&buf, testKey, "test/roundtrip")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		sr, err := NewStreamReader(&buf, testKey, "test/roundtrip")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(sr)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: payload mismatch", size)
		}
	}
}

func streamBytes(t *testing.T, context string, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, testKey, context)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamFailsClosed(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, ChunkBytes+100)
	good := streamBytes(t, "test/tamper", payload)

	wantIntegrity := func(name string, raw []byte, context string) {
		t.Helper()
		sr, err := NewStreamReader(bytes.NewReader(raw), testKey, context)
		if err == nil {
			_, err = io.ReadAll(sr)
		}
		var ie *secmem.IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: got %v, want IntegrityError", name, err)
		}
	}

	// Flip one payload byte: the frame CRC catches it.
	flipped := append([]byte(nil), good...)
	flipped[len(streamMagic)+10+len("test/tamper")+4+10] ^= 0x01
	wantIntegrity("bit flip", flipped, "test/tamper")

	// Truncate before the trailer: never silently accepted.
	wantIntegrity("truncated", good[:len(good)-1], "test/tamper")
	wantIntegrity("no trailer", good[:len(good)-streamMACLen-4], "test/tamper")

	// Wrong role: a stream decoded under another context is rejected.
	wantIntegrity("role confusion", good, "test/other")

	// Wrong key: trailer MAC mismatch.
	sr, err := NewStreamReader(bytes.NewReader(good), bytes.Repeat([]byte{9}, 32), "test/tamper")
	if err == nil {
		_, err = io.ReadAll(sr)
	}
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("wrong key: got %v, want IntegrityError", err)
	}
}

// testEngines returns n blank engines of one small organization.
func testEngines(t testing.TB, n int) []*secmem.Memory {
	t.Helper()
	out := make([]*secmem.Memory, n)
	for i := range out {
		m, err := secmem.New(secmem.Config{
			MemoryBytes: 1 << 16,
			Enc:         counters.MorphSpec(true),
			Tree:        []counters.Spec{counters.MorphSpec(true)},
			Key:         bytes.Repeat([]byte{byte(i + 1)}, 16),
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

func testLine(shard int, i uint64) []byte {
	return bytes.Repeat([]byte{byte(shard*31) ^ byte(i)}, secmem.LineBytes)
}

// writeEngines writes lines 0..n-1 of every engine.
func writeEngines(t testing.TB, engines []*secmem.Memory, n uint64) {
	t.Helper()
	for s, m := range engines {
		for i := uint64(0); i < n; i++ {
			if err := m.Write(i*secmem.LineBytes, testLine(s, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// deltaPayload returns a delta segment payload: the header, then each
// engine's dirty records.
func deltaPayload(engines []*secmem.Memory, hdr secmem.SegmentHeader) []byte {
	buf := secmem.AppendSegmentHeader(nil, hdr, engines)
	for _, m := range engines {
		buf, _, _ = m.CollectDirty(buf)
	}
	return buf
}

func writeBytes(p []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(p)
		return err
	}
}

func wantIntegrity(t *testing.T, what string, err error) {
	t.Helper()
	var ie *secmem.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("%s: got %v, want IntegrityError", what, err)
	}
}

func TestDeltaFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := testEngines(t, 2)
	writeEngines(t, src, 12)
	hdr := secmem.SegmentHeader{
		Seq: 5, Base: 4,
		CoveredLSN:    []uint64{10, 20},
		CoveredWrites: []uint64{9, 18},
	}
	path := DeltaPath(dir, 5, 4)
	if err := WriteSegmentFile(path, testKey, Delta(5, 4), writeBytes(deltaPayload(src, hdr))); err != nil {
		t.Fatal(err)
	}
	// Everything in a fresh engine is dirty, so the delta rebuilds the
	// whole state on blank engines.
	dst := testEngines(t, 2)
	var data int
	got, n, err := ReadSegmentFile(path, testKey, Delta(5, 4), dst, func(int, uint64) { data++ })
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 5 || got.Base != 4 || got.CoveredLSN[1] != 20 || got.CoveredWrites[0] != 9 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if data != 24 || n <= data {
		t.Fatalf("installed %d records with %d data lines, want 24 data lines plus roots and counters", n, data)
	}
	for s, m := range dst {
		for i := uint64(0); i < 12; i++ {
			line, err := m.Read(i * secmem.LineBytes)
			if err != nil || !bytes.Equal(line, testLine(s, i)) {
				t.Fatalf("shard %d line %d after round trip: %v", s, i, err)
			}
		}
	}

	// A delta renamed to another chain position fails authentication.
	moved := DeltaPath(dir, 6, 5)
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadSegmentFile(moved, testKey, Delta(6, 5), testEngines(t, 2), nil)
	wantIntegrity(t, "renamed delta", err)

	// At-rest bit flip fails authentication.
	if err := os.Rename(moved, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadSegmentFile(path, testKey, Delta(5, 4), testEngines(t, 2), nil)
	wantIntegrity(t, "tampered delta", err)
}

// TestForgedCountUnderWrongKey is the regression test for the
// parse-before-authenticate OOM: a delta sealed under an attacker's key
// whose payload claims 2^32 lines must fail as an IntegrityError, bounded
// by the geometry before anything is allocated.
func TestForgedCountUnderWrongKey(t *testing.T) {
	engines := testEngines(t, 1)
	payload := secmem.AppendSegmentHeader(nil, secmem.SegmentHeader{Seq: 5, Base: 4}, engines)
	payload = append(payload, make([]byte, secmem.LineBytes)...) // root line
	payload = binary.LittleEndian.AppendUint64(payload, 1<<32)   // level-0 count
	var sealed bytes.Buffer
	if err := WriteSegment(&sealed, bytes.Repeat([]byte{0xEE}, 32), Delta(5, 4), writeBytes(payload)); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadSegment(&sealed, testKey, Delta(5, 4), engines, nil)
	wantIntegrity(t, "forged count", err)
}

// segmentSeeds returns sealed and bare full, delta and hibernate segments
// with the role and engine count each decodes under.
func segmentSeeds(t testing.TB) (roles []Role, shards []int, payloads [][]byte) {
	full := testEngines(t, 2)
	writeEngines(t, full, 8)
	var buf bytes.Buffer
	if err := secmem.WriteSegment(&buf, secmem.SegmentHeader{Seq: 1}, full); err != nil {
		t.Fatal(err)
	}
	roles = append(roles, Snapshot(1))
	shards = append(shards, 2)
	payloads = append(payloads, buf.Bytes())

	roles = append(roles, Delta(2, 1))
	shards = append(shards, 2)
	payloads = append(payloads, deltaPayload(full, secmem.SegmentHeader{Seq: 2, Base: 1}))

	var one bytes.Buffer
	if err := full[1].Save(&one); err != nil {
		t.Fatal(err)
	}
	roles = append(roles, Hibernate(1))
	shards = append(shards, 1)
	payloads = append(payloads, one.Bytes())
	return roles, shards, payloads
}

// FuzzReadSegment feeds arbitrary bytes to ReadSegment twice: as a raw
// sealed stream, and as a payload sealed under the right key (so the
// decoder behind the envelope is reached). Neither may panic, and every
// error must be typed.
func FuzzReadSegment(f *testing.F) {
	roles, shards, payloads := segmentSeeds(f)
	for i, p := range payloads {
		var sealed bytes.Buffer
		if err := WriteSegment(&sealed, testKey, roles[i], writeBytes(p)); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), p)
		f.Add(uint8(i), sealed.Bytes())
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		i := int(sel) % len(roles)
		var sealed bytes.Buffer
		if err := WriteSegment(&sealed, testKey, roles[i], writeBytes(data)); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, sealed.Bytes()} {
			_, _, err := ReadSegment(bytes.NewReader(in), testKey, roles[i], testEngines(t, shards[i]), nil)
			var ie *secmem.IntegrityError
			var me *secmem.MismatchError
			if err != nil && !errors.As(err, &ie) && !errors.As(err, &me) {
				t.Fatalf("untyped error: %v", err)
			}
		}
	})
}

func TestParseDeltaName(t *testing.T) {
	name := DeltaName(0x1f, 0x1e)
	seq, base, ok := ParseDeltaName(name)
	if !ok || seq != 0x1f || base != 0x1e {
		t.Fatalf("ParseDeltaName(%q) = %d,%d,%v", name, seq, base, ok)
	}
	for _, bad := range []string{"delta.", "delta.zz.11", "delta.0011", "snapshot.0001", "delta.1.2.3x"} {
		if _, _, ok := ParseDeltaName(bad); ok && bad != "delta.1.2.3x" {
			t.Fatalf("ParseDeltaName(%q) accepted", bad)
		}
	}
	if filepath.Base(DeltaPath("/x", 1, 2)) != DeltaName(1, 2) {
		t.Fatal("DeltaPath does not end in DeltaName")
	}
}

func TestResolveChain(t *testing.T) {
	snaps := map[uint64]bool{3: true, 7: true}
	deltas := map[uint64]Entry{
		4: {Seq: 4, Base: 3},
		5: {Seq: 5, Base: 4},
		6: {Seq: 6, Base: 5},
		9: {Seq: 9, Base: 8}, // orphan: base 8 missing
	}
	base, chain, err := ResolveChain(6, snaps, deltas)
	if err != nil || base != 3 || len(chain) != 3 {
		t.Fatalf("chain from 6: base=%d len=%d err=%v", base, len(chain), err)
	}
	if chain[0].Seq != 4 || chain[2].Seq != 6 {
		t.Fatalf("chain order wrong: %+v", chain)
	}
	base, chain, err = ResolveChain(7, snaps, deltas)
	if err != nil || base != 7 || len(chain) != 0 {
		t.Fatalf("snapshot head: base=%d len=%d err=%v", base, len(chain), err)
	}
	_, _, err = ResolveChain(9, snaps, deltas)
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Head != 9 || ce.Missing != 8 {
		t.Fatalf("broken chain: got %v", err)
	}

	req := Required([]uint64{6, 9}, snaps, deltas)
	for _, want := range []uint64{3, 4, 5, 6} {
		if !req[want] {
			t.Fatalf("Required missing epoch %d", want)
		}
	}
	if req[9] || req[8] {
		t.Fatal("Required kept an unresolvable head")
	}
}

type fakeTarget struct {
	deltas, fulls atomic.Int64
	chain         atomic.Int64
}

func (f *fakeTarget) CheckpointDelta() error { f.deltas.Add(1); f.chain.Add(1); return nil }
func (f *fakeTarget) Checkpoint() error      { f.fulls.Add(1); f.chain.Store(0); return nil }
func (f *fakeTarget) DeltaChainLen() int     { return int(f.chain.Load()) }

func TestRunnerCompactsChain(t *testing.T) {
	ft := &fakeTarget{}
	r := NewRunner(ft, time.Millisecond, 3, nil)
	deadline := time.Now().Add(5 * time.Second)
	for ft.fulls.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	if ft.fulls.Load() < 2 {
		t.Fatalf("runner never compacted: %d deltas, %d fulls", ft.deltas.Load(), ft.fulls.Load())
	}
	if ft.deltas.Load() == 0 {
		t.Fatal("runner cut no deltas")
	}
	// Stop is idempotent.
	r.Stop()
}
