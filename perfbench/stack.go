package main

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/secmem"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
	"github.com/securemem/morphtree/internal/wire"
)

// stack is one workload's system under test, built through the public
// constructors: a volatile shard.Sharded or a durable.Memory, optionally
// behind server.New on a loopback listener with one wire.Client per caller.
type stack struct {
	w      *workload
	cfg    shard.Config
	dcfg   durable.Config
	params proof.Params
	key    []byte
	pub    ed25519.PublicKey

	sh  *shard.Sharded  // the engine (for durable, the one inside mem)
	mem *durable.Memory // nil on volatile workloads

	srv     *server.Server
	cancel  context.CancelFunc
	served  chan error
	clients []*wire.Client

	// Set only on traced runs.
	reg    *obs.Registry
	tracer *obs.Tracer
	timer  *engineTimer
	conns  *connStats
}

// derive returns n deterministic bytes for a purpose, from the seed.
func derive(seed uint64, purpose string, n int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	sum := sha256.Sum256(append(b[:], purpose...))
	return sum[:n]
}

// newStack builds the stack; on return the first op can be issued.
func newStack(w *workload, seed uint64, dir string, traced bool) (*stack, error) {
	enc, tree, err := shard.Organization(organization)
	if err != nil {
		return nil, err
	}
	s := &stack{w: w, key: derive(seed, "master-key", 16)}
	if traced {
		s.reg = obs.NewRegistry()
		s.tracer = obs.NewTracer(1024)
	}
	s.cfg = shard.Config{
		Shards: shards,
		Mem:    secmem.Config{MemoryBytes: w.capacity, Enc: enc, Tree: tree, Key: s.key},
		Obs:    s.reg,
	}
	s.params = proof.Params{MemoryBytes: w.capacity, Shards: shards, Enc: enc, Tree: tree}

	var eng server.Engine
	if w.durable {
		// The WAL is synced at each delta cut, not on every write: with
		// SyncAlways every write waits on the disk's fsync, whose speed
		// on a shared virtual disk drifts too much between runs for the
		// benchmark's bounds (see README.md).
		s.dcfg = durable.Config{Dir: dir, Sync: durable.SyncNone, Obs: s.reg, Tracer: s.tracer}
		mem, _, err := durable.Open(s.cfg, s.dcfg)
		if err != nil {
			return nil, err
		}
		s.mem, s.sh, eng = mem, mem.Sharded(), mem
		if traced {
			mem.RegisterMetrics(s.reg)
		}
	} else {
		sh, err := shard.New(s.cfg)
		if err != nil {
			return nil, err
		}
		s.sh, eng = sh, sh
	}
	if !w.wire {
		return s, nil
	}

	auth, err := proof.NewAuthority(derive(seed, "authority-seed", ed25519.SeedSize))
	if err != nil {
		return nil, s.closeEngine(err)
	}
	s.pub = auth.Public()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, s.closeEngine(err)
	}
	if traced {
		s.timer = &engineTimer{}
		s.conns = &connStats{}
		eng = traceEngine(eng, s.timer)
		ln = tracedListener{Listener: ln, st: s.conns}
	}
	s.srv = server.New(eng, server.Config{Authority: auth, Obs: s.reg})
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ctx, ln) }()
	for i := 0; i < workers; i++ {
		cl, err := wire.Dial(ln.Addr().String(), 30*time.Second)
		if err != nil {
			s.stopServer()
			return nil, s.closeEngine(err)
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// stopServer closes the clients and shuts the server down, waiting for it.
func (s *stack) stopServer() {
	for _, cl := range s.clients {
		_ = cl.Close()
	}
	s.clients = nil
	if s.cancel == nil {
		return
	}
	s.cancel()
	<-s.served
	s.cancel = nil
}

// closeEngine closes a durable engine (flushing its WAL, cutting no
// checkpoint) and joins its error with cause.
func (s *stack) closeEngine(cause error) error {
	if s.mem == nil {
		return cause
	}
	err := s.mem.Close()
	s.mem = nil
	return errors.Join(cause, err)
}

// teardown releases everything the stack holds. It drops the stack's
// references to the engine, so that restarts run on a heap that holds
// only the harness, as a fresh process's would.
func (s *stack) teardown() error {
	s.stopServer()
	err := s.closeEngine(nil)
	s.sh, s.srv, s.reg, s.tracer = nil, nil, nil, nil
	return err
}

// target returns caller i's path into the system.
func (s *stack) target(i int) target {
	if s.w.wire {
		return wireTarget{s.clients[i]}
	}
	return engineTarget{s.sh}
}

// target is one caller's path into the system under test.
type target interface {
	read(addr uint64) ([]byte, error)
	write(addr uint64, line []byte) error
	prove(addr uint64) (*proof.Proof, error)
}

type engineTarget struct{ sh *shard.Sharded }

func (t engineTarget) read(addr uint64) ([]byte, error)        { return t.sh.Read(addr) }
func (t engineTarget) write(addr uint64, line []byte) error    { return t.sh.Write(addr, line) }
func (t engineTarget) prove(addr uint64) (*proof.Proof, error) { return t.sh.Prove(addr) }

type wireTarget struct{ cl *wire.Client }

func (t wireTarget) read(addr uint64) ([]byte, error)        { return t.cl.Read(addr) }
func (t wireTarget) write(addr uint64, line []byte) error    { return t.cl.Write(addr, line) }
func (t wireTarget) prove(addr uint64) (*proof.Proof, error) { return t.cl.Proof(addr) }

func checkAcked(read func(uint64) ([]byte, error), shadow []uint32) (checked uint64, err error) {
	var want [lineBytes]byte
	for line, v := range shadow {
		if v == 0 {
			continue
		}
		fill(want[:], uint64(line), v)
		got, err := read(uint64(line) * lineBytes)
		checked++
		if err != nil {
			return checked, fmt.Errorf("line %d: %w", line, err)
		}
		if string(got) != string(want[:]) {
			return checked, fmt.Errorf("line %d: read back does not match acknowledged write %d", line, v)
		}
	}
	return checked, nil
}
