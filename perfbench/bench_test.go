package main

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/securemem/morphtree/internal/durable"
	"github.com/securemem/morphtree/internal/proof"
	"github.com/securemem/morphtree/internal/server"
	"github.com/securemem/morphtree/internal/shard"
)

// testOps is how many ops each caller issues in the fixed-count runs.
const testOps = 1500

func TestStreamDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamDigest(w, 7, workers), streamDigest(w, 7, workers), streamDigest(w, 8, workers)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, a)
		}
	}
}

func TestCallersOwnDisjointShards(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < workers; i++ {
			g := newGen(w, 3, i, workers)
			for n := 0; n < 10000; n++ {
				_, line := g.next()
				if line >= w.capacity/lineBytes {
					t.Fatalf("%s: line %d beyond capacity", w.name, line)
				}
				if owner := int(line % shards % workers); owner != i {
					t.Fatalf("%s: caller %d generated line %d of caller %d's shards", w.name, i, line, owner)
				}
			}
		}
	}
}

func mustRun(t *testing.T, w *workload, seed uint64, traced bool) *result {
	t.Helper()
	res, err := runOnce(w, seed, 0, testOps, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s traced=%v: %d checks failed: %v", w.name, traced, res.failed, res.errs)
	}
	return res
}

func TestEngineWriteCountsRepeat(t *testing.T) {
	w, err := findWorkload("engine_write")
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustRun(t, w, 11, false), mustRun(t, w, 11, false)
	if a.stats.Reencryptions == 0 || slices.Max(a.stats.Overflows) == 0 {
		t.Fatalf("no overflows in %d writes: the workload does not stress the counters", a.stats.Writes)
	}
	if !statsEqual(a, b) {
		t.Fatalf("engine counts differ between two runs of one seed:\n%+v\n%+v", a.stats, b.stats)
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		plain, traced := mustRun(t, w, 5, false), mustRun(t, w, 5, true)
		if !slices.Equal(plain.issued, traced.issued) {
			t.Errorf("%s: issued op digests differ: %x vs %x", w.name, plain.issued, traced.issued)
		}
		if !statsEqual(plain, traced) {
			t.Errorf("%s: engine counts differ:\nuntraced %+v\ntraced   %+v", w.name, plain.stats, traced.stats)
		}
		for _, l := range layerNames {
			if _, ok := traced.layers[l.name]; !ok && l.name != "trace.overhead_frac" {
				t.Errorf("%s: traced run lacks %s", w.name, l.name)
			}
		}
	}
}

func statsEqual(a, b *result) bool {
	x, y := a.stats, b.stats
	return x.Reads == y.Reads && x.Writes == y.Writes &&
		x.Reencryptions == y.Reencryptions && x.VerifiedFetches == y.VerifiedFetches &&
		slices.Equal(x.Increments, y.Increments) && slices.Equal(x.Overflows, y.Overflows) &&
		slices.Equal(x.Rebases, y.Rebases) && slices.Equal(x.SetResets, y.SetResets) &&
		slices.Equal(x.FormatSwitches, y.FormatSwitches)
}

// checkpointNotifier mirrors the server's unexported probe for the
// checkpoint hook.
type checkpointNotifier interface{ OnCheckpoint(fn func(seq uint64)) }

// surfaces lists which optional engine surfaces the server probes for.
func surfaces(eng server.Engine) [5]bool {
	_, pr := eng.(server.Prover)
	_, ck := eng.(server.Checkpointer)
	_, fl := eng.(server.Flusher)
	_, cn := eng.(checkpointNotifier)
	_, de := eng.(server.DomainEngine)
	return [5]bool{pr, ck, fl, cn, de}
}

func TestTracedEngineKeepsSurfaces(t *testing.T) {
	enc, tree, err := shard.Organization(organization)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{Shards: shards}
	cfg.Mem.MemoryBytes, cfg.Mem.Enc, cfg.Mem.Tree, cfg.Mem.Key = 1<<20, enc, tree, derive(1, "k", 16)
	sh, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem, _, err := durable.Open(cfg, durable.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	for _, eng := range []server.Engine{sh, mem} {
		if got, want := surfaces(traceEngine(eng, &engineTimer{})), surfaces(eng); got != want {
			t.Errorf("%T: traced surfaces %v, engine surfaces %v", eng, got, want)
		}
	}
}

// fakeTarget is a memory of shards lines that never allocates; a bad one
// corrupts every read.
type fakeTarget struct {
	lines [shards][lineBytes]byte
	bad   bool
}

func (f *fakeTarget) read(addr uint64) ([]byte, error) {
	l := &f.lines[addr/lineBytes]
	if f.bad {
		l[0] ^= 1
	}
	return l[:], nil
}

func (f *fakeTarget) write(addr uint64, line []byte) error {
	copy(f.lines[addr/lineBytes][:], line)
	return nil
}

func (f *fakeTarget) prove(uint64) (*proof.Proof, error) {
	return nil, errors.New("no proofs")
}

func TestTimingPathAllocatesNothing(t *testing.T) {
	spec := &workload{name: "alloc", capacity: shards * lineBytes, writePct: 50, proofEvery: math.MaxInt32}
	for _, traced := range []bool{false, true} {
		w := &worker{g: newGen(spec, 1, 0, workers), tg: &fakeTarget{}, shadow: make([]uint32, shards),
			wins: make([]window, windows), t0: time.Now(), winDur: time.Second, traced: traced}
		if traced {
			w.timer = &engineTimer{}
		}
		allocs := testing.AllocsPerRun(2000, func() { w.run(time.Time{}, w.ops+1) })
		if w.err != nil {
			t.Fatal(w.err)
		}
		if allocs != 0 {
			t.Errorf("traced=%v: %.1f allocations per op on the harness's timing path", traced, allocs)
		}
	}
}

func TestShadowCatchesWrongRead(t *testing.T) {
	spec := &workload{name: "wrong", capacity: shards * lineBytes, writePct: 0, proofEvery: math.MaxInt32}
	w := &worker{g: newGen(spec, 1, 0, workers), tg: &fakeTarget{bad: true}, shadow: make([]uint32, shards),
		wins: make([]window, 1)}
	w.run(time.Time{}, 10)
	if w.err == nil || w.failed != 1 {
		t.Fatalf("a read that differs from the shadow model was not caught (failed=%d, err=%v)", w.failed, w.err)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	vals := make([]float64, 0, 100000)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < cap(vals); i++ {
		v := time.Duration(rng.ExpFloat64() * 50e3)
		h.record(v)
		vals = append(vals, float64(v))
	}
	slices.Sort(vals)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := vals[int(q*float64(len(vals)))]
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.01 {
			t.Errorf("q%.2f: hist %.0f, exact %.0f", q, got, exact)
		}
	}
	for v := uint64(0); v < 1<<20; v += 997 {
		lo, width := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Fatalf("value %d outside its bucket [%v, %v)", v, lo, lo+width)
		}
	}
}
