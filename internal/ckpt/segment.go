package ckpt

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"github.com/securemem/morphtree/internal/secmem"
)

// Segments: every copy of shard state written to disk or shipped to a
// peer is a secmem state segment (see secmem/segment.go and DESIGN.md
// "State format") sealed in the stream envelope. One key seals them all;
// the stream context names the segment's role and chain position, so a
// segment renamed to another position, or presented in another role,
// fails authentication as *secmem.IntegrityError.

// Role is what a segment is for and where it sits in the checkpoint
// chain. It names the stream context and the position the segment's
// header must carry.
type Role struct {
	name      string
	seq, base uint64
}

// Snapshot is the role of full checkpoint seq (a segment with base 0).
func Snapshot(seq uint64) Role { return Role{name: "snapshot", seq: seq} }

// Delta is the role of incremental checkpoint seq, cut against base.
func Delta(seq, base uint64) Role { return Role{name: "delta", seq: seq, base: base} }

// Hibernate is the role of one shard's state shipped by live migration.
func Hibernate(shard int) Role { return Role{name: fmt.Sprintf("hibernate/%d", shard)} }

// Bootstrap is the role of the full state a replica bootstraps from.
func Bootstrap() Role { return Role{name: "bootstrap"} }

func (r Role) context() string {
	return fmt.Sprintf("morphtree/ckpt/%s/%d/%d", r.name, r.seq, r.base)
}

// WriteSegment seals the segment payload writes into w under key and
// role. payload must write a header carrying the role's position.
func WriteSegment(w io.Writer, key []byte, role Role, payload func(io.Writer) error) error {
	sw, err := NewStreamWriter(w, key, role.context())
	if err != nil {
		return err
	}
	if err := payload(sw); err != nil {
		return err
	}
	return sw.Close()
}

// WriteSegmentFile persists a sealed segment at path via temp file, fsync,
// and atomic rename (the caller fsyncs the directory).
func WriteSegmentFile(path string, key []byte, role Role, payload func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: segment: %w", err)
	}
	werr := WriteSegment(f, key, role, payload)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("ckpt: segment %s: %w", path, werr)
	}
	return nil
}

// ReadSegment authenticates a sealed segment from r and decodes it into
// engines (see secmem.ReadSegment), returning its header and record
// count. The whole stream, trailer MAC included, is verified before
// ReadSegment returns nil, and an error met while decoding an inauthentic
// stream is reported as the stream's *secmem.IntegrityError: callers may
// adopt the engines only on success.
func ReadSegment(r io.Reader, key []byte, role Role, engines []*secmem.Memory, onData func(shard int, idx uint64)) (secmem.SegmentHeader, int, error) {
	sr, err := NewStreamReader(r, key, role.context())
	if err != nil {
		return secmem.SegmentHeader{}, 0, err
	}
	br := bufio.NewReaderSize(sr, ChunkBytes)
	hdr, n, err := secmem.ReadSegment(br, engines, role.seq, role.base, onData)
	rest, verr := io.Copy(io.Discard, br)
	switch {
	case verr != nil:
		return hdr, n, verr
	case err != nil:
		return hdr, n, err
	case rest != 0:
		return hdr, n, tamper(role.context(), fmt.Sprintf("%d bytes past the state payload", rest))
	}
	return hdr, n, nil
}

// ReadSegmentFile is ReadSegment on the file at path.
func ReadSegmentFile(path string, key []byte, role Role, engines []*secmem.Memory, onData func(shard int, idx uint64)) (secmem.SegmentHeader, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return secmem.SegmentHeader{}, 0, fmt.Errorf("ckpt: read segment: %w", err)
	}
	defer f.Close()
	return ReadSegment(f, key, role, engines, onData)
}
