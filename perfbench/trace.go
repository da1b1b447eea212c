package main

import (
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
)

// engineTimer times every call the server makes into its engine. Each
// caller owns its shards, so the server goroutine answering caller w is the
// only one touching slot w: its histograms need no lock, and last carries
// the duration of the engine call behind w's latest reply.
type engineTimer struct {
	slots [workers]engineSlot
}

type engineSlot struct {
	read, write hist
	last        atomic.Int64
}

func (t *engineTimer) slot(addr uint64) *engineSlot {
	return &t.slots[(addr/lineBytes)%shards%workers]
}

// resetTrace zeroes the harness's trace counters. Callers must have
// stopped all traffic.
func (s *stack) resetTrace() {
	if s.timer != nil {
		for i := range s.timer.slots {
			sl := &s.timer.slots[i]
			sl.read, sl.write = hist{}, hist{}
			sl.last.Store(0)
		}
	}
	if c := s.conns; c != nil {
		c.reads.Store(0)
		c.writes.Store(0)
		c.bytes.Store(0)
		c.writeNS.Store(0)
	}
}

// tracedEngine wraps a server.Engine with call timing.
type tracedEngine struct {
	eng server.Engine
	t   *engineTimer
}

func (e *tracedEngine) Read(addr uint64) ([]byte, error) {
	start := time.Now()
	line, err := e.eng.Read(addr)
	d := time.Since(start)
	s := e.t.slot(addr)
	s.read.record(d)
	s.last.Store(int64(d))
	return line, err
}

func (e *tracedEngine) Write(addr uint64, line []byte) error {
	start := time.Now()
	err := e.eng.Write(addr, line)
	d := time.Since(start)
	s := e.t.slot(addr)
	s.write.record(d)
	s.last.Store(int64(d))
	return err
}

func (e *tracedEngine) VerifyAll() error       { return e.eng.VerifyAll() }
func (e *tracedEngine) Stats() secmem.Stats    { return e.eng.Stats() }
func (e *tracedEngine) Save(w io.Writer) error { return e.eng.Save(w) }
func (e *tracedEngine) FlipDataBit(addr uint64, byteOff int, bit uint) bool {
	return e.eng.FlipDataBit(addr, byteOff, bit)
}

// tracedProver adds the server's optional proof surface.
type tracedProver struct {
	tracedEngine
	pr server.Prover
}

func (e *tracedProver) Prove(addr uint64) (*proof.Proof, error) {
	start := time.Now()
	p, err := e.pr.Prove(addr)
	e.t.slot(addr).last.Store(int64(time.Since(start)))
	return p, err
}

func (e *tracedProver) RootDigests() []proof.Digest { return e.pr.RootDigests() }

// tracedSharded forwards every optional surface *shard.Sharded offers.
type tracedSharded struct {
	tracedProver
	sh *shard.Sharded
}

func (e *tracedSharded) TenantRead(id string, addr uint64) ([]byte, error) {
	return e.sh.TenantRead(id, addr)
}

func (e *tracedSharded) TenantWrite(id string, addr uint64, line []byte) error {
	return e.sh.TenantWrite(id, addr, line)
}

// tracedDurable forwards every optional surface *durable.Memory offers.
type tracedDurable struct {
	tracedProver
	m *durable.Memory
}

func (e *tracedDurable) Checkpoint() error                { return e.m.Checkpoint() }
func (e *tracedDurable) Seq() uint64                      { return e.m.Seq() }
func (e *tracedDurable) Flush() error                     { return e.m.Flush() }
func (e *tracedDurable) OnCheckpoint(fn func(seq uint64)) { e.m.OnCheckpoint(fn) }

// traceEngine wraps one of the two engines the server runs over, keeping
// exactly the optional surfaces the server probes for, so a traced server
// serves the same feature set as an untraced one.
func traceEngine(eng server.Engine, t *engineTimer) server.Engine {
	base := tracedEngine{eng: eng, t: t}
	switch e := eng.(type) {
	case *shard.Sharded:
		return &tracedSharded{tracedProver{base, e}, e}
	case *durable.Memory:
		return &tracedDurable{tracedProver{base, e}, e}
	}
	return &base
}

// connStats counts what the server's connections do on the socket.
type connStats struct {
	reads, writes, bytes atomic.Uint64
	writeNS              atomic.Int64
}

type tracedListener struct {
	net.Listener
	st *connStats
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, st: l.st}, nil
}

type tracedConn struct {
	net.Conn
	st *connStats
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.bytes.Add(uint64(n))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNS.Add(int64(time.Since(start)))
	c.st.writes.Add(1)
	c.st.bytes.Add(uint64(n))
	return n, err
}
