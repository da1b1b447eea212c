package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
)

// opKind is one operation type of a workload's op stream.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opProof
)

// digestOps is how many leading ops of each caller's stream the op-stream
// digest covers. The measured loop consumes a time-dependent number of
// ops, so the digest fingerprints the stream the seed defines, not the
// prefix one run happened to reach.
const digestOps = 1 << 16

// gen generates one caller's op stream from the workload seed. Callers own
// disjoint shards (caller w of W serves the shards s with s%W == w), so every
// engine sees exactly one caller's ops, in seed order.
type gen struct {
	spec    *workload
	rng     *rand.Rand
	zipf    *rand.Zipf
	lines   uint64
	worker  uint64
	workers uint64
}

func newGen(spec *workload, seed uint64, worker, workers int) *gen {
	rng := rand.New(rand.NewPCG(seed, uint64(worker)+0x9e3779b97f4a7c15))
	g := &gen{
		spec:    spec,
		rng:     rng,
		lines:   spec.capacity / lineBytes,
		worker:  uint64(worker),
		workers: uint64(workers),
	}
	if spec.zipfS > 0 {
		g.zipf = rand.NewZipf(rng, spec.zipfS, 1, g.lines-1)
	}
	return g
}

// next returns the next op and the global line it targets.
func (g *gen) next() (opKind, uint64) {
	kind := opRead
	if g.rng.IntN(100) < g.spec.writePct {
		kind = opWrite
	} else if g.rng.IntN(g.spec.proofEvery) == 0 {
		kind = opProof
	}
	var line uint64
	if g.zipf != nil {
		line = g.zipf.Uint64()
	} else {
		line = g.rng.Uint64N(g.lines)
	}
	// Move the line into one of this caller's shards, keeping its
	// position in the interleave: global line d lives in shard d%shards.
	s := line % shards
	own := s/g.workers*g.workers + g.worker
	return kind, line - s + own
}

// streamDigest hashes the first digestOps ops of every caller's stream.
func streamDigest(spec *workload, seed uint64, workers int) string {
	h := sha256.New()
	var rec [9]byte
	for w := 0; w < workers; w++ {
		g := newGen(spec, seed, w, workers)
		for i := 0; i < digestOps; i++ {
			kind, line := g.next()
			rec[0] = byte(kind)
			binary.LittleEndian.PutUint64(rec[1:], line)
			h.Write(rec[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// fill writes the content of version v of a line into buf. Version 0 is
// the never-written line, which reads as zeros.
func fill(buf []byte, line uint64, v uint32) {
	if v == 0 {
		clear(buf)
		return
	}
	x := line<<32 ^ uint64(v)
	for i := 0; i < lineBytes; i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
