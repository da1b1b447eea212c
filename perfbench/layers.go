package main

import (
	"runtime"
	"time"

	"github.com/securemem/morphtree/internal/aesctr"
	"github.com/securemem/morphtree/internal/counters"
	"github.com/securemem/morphtree/internal/mac"
	"github.com/securemem/morphtree/internal/obs"
	"github.com/securemem/morphtree/internal/shard"
)

// layerNames lists every per-layer metric with its unit. A layer a
// workload does not use reports 0.
var layerNames = []struct{ name, unit string }{
	{"server.conn_reads_per_op", "count"},
	{"server.conn_writes_per_op", "count"},
	{"server.conn_io_us_per_op", "us"},
	{"server.non_engine_us.p50", "us"},
	{"wire.bytes_per_op", "B"},
	{"server.shed_frac", "ratio"},
	{"secmem.write_us.p50", "us"},
	{"secmem.write_us.p99", "us"},
	{"secmem.read_us.p50", "us"},
	{"secmem.lock_wait_us.p99", "us"},
	{"secmem.allocs_per_op", "count"},
	{"secmem.reencryptions_per_write", "count"},
	{"secmem.overflows_per_kwrite", "count"},
	{"secmem.rebases_per_kwrite", "count"},
	{"secmem.format_switches_per_kwrite", "count"},
	{"secmem.verified_fetches_per_op", "count"},
	{"counters.encode_ns", "ns"},
	{"counters.decode_ns", "ns"},
	{"counters.decode_allocs", "count"},
	{"mac.counter_ns", "ns"},
	{"mac.data_ns", "ns"},
	{"mac.allocs_per_call", "count"},
	{"aesctr.pad_ns", "ns"},
	{"durable.write_us.p50", "us"},
	{"durable.write_us.p99", "us"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.group_commit_batch.p50", "count"},
	{"wal.fsync_us.p50", "us"},
	{"wal.fsync_us.p99", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"ckpt.delta_cut_ms.p50", "ms"},
	{"ckpt.delta_bytes_per_dirty_line", "B"},
	{"ckpt.cut_write_p99_us", "us"},
	{"durable.replayed_records", "count"},
	{"durable.recovery_verified_lines", "count"},
	{"proof.build_us.p50", "us"},
	{"proof.verify_us.p50", "us"},
	{"proof.bytes", "B"},
	{"trace.overhead_frac", "ratio"},
}

// layerMetrics derives the per-layer metrics of a traced run from the
// harness's own timing around each layer's calls and from the counters and
// histograms the program exports.
func layerMetrics(st *stack, ws []*worker, res *result, m0 *mark, ms1 *runtime.MemStats, cut *cutter) map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		m[l.name] = 0
	}
	ops := float64(res.ops)
	var nonEngine, cutWrite, build, verify hist
	var proofBytes, proofs uint64
	for _, wk := range ws {
		nonEngine.merge(&wk.nonEngine)
		cutWrite.merge(&wk.cutWrite)
		build.merge(&wk.build)
		verify.merge(&wk.vf)
		proofBytes += wk.proofBytes
		proofs += wk.proofs
	}
	snap := st.reg.Snapshot()
	obsHist := func(name string) obs.HistSnapshot {
		return snap.Histograms[name].Delta(m0.snap.Histograms[name])
	}
	obsUS := func(name string, q float64) float64 {
		return float64(obsHist(name).Quantile(q)) / 1e3
	}

	if st.w.wire {
		m["server.conn_reads_per_op"] = float64(st.conns.reads.Load()) / ops
		m["server.conn_writes_per_op"] = float64(st.conns.writes.Load()) / ops
		m["server.conn_io_us_per_op"] = float64(st.conns.writeNS.Load()) / 1e3 / ops
		m["server.non_engine_us.p50"] = nonEngine.us(0.5)
		m["wire.bytes_per_op"] = float64(st.conns.bytes.Load()) / ops
		m["server.shed_frac"] = float64(st.srv.NetStats().Shed) / ops
		m["proof.build_us.p50"] = obsUS("proof.build.latency", 0.5)
	} else {
		m["proof.build_us.p50"] = build.us(0.5)
	}

	// The engine's own write and read time: the direct call on the
	// library workload, the wrapped engine call behind the server, and
	// the engine's histograms under the durability layer.
	var engRead, engWrite hist
	if st.timer != nil {
		for i := range st.timer.slots {
			engRead.merge(&st.timer.slots[i].read)
			engWrite.merge(&st.timer.slots[i].write)
		}
	}
	switch {
	case st.mem != nil:
		m["secmem.write_us.p50"] = obsUS("secmem.write.latency", 0.5)
		m["secmem.write_us.p99"] = obsUS("secmem.write.latency", 0.99)
		m["secmem.read_us.p50"] = obsUS("secmem.read.latency", 0.5)
		m["durable.write_us.p50"] = engWrite.us(0.5)
		m["durable.write_us.p99"] = engWrite.us(0.99)
	case st.timer != nil:
		m["secmem.write_us.p50"] = engWrite.us(0.5)
		m["secmem.write_us.p99"] = engWrite.us(0.99)
		m["secmem.read_us.p50"] = engRead.us(0.5)
	default:
		m["secmem.write_us.p50"] = res.total.write.us(0.5)
		m["secmem.write_us.p99"] = res.total.write.us(0.99)
		m["secmem.read_us.p50"] = res.total.read.us(0.5)
	}
	m["secmem.lock_wait_us.p99"] = obsUS("secmem.lock_wait", 0.99)
	m["secmem.allocs_per_op"] = float64(ms1.Mallocs-m0.mem.Mallocs) / ops

	s := res.stats
	writes := float64(s.Writes)
	var overflows, rebases, switches uint64
	for _, row := range s.OverflowsByLevel() {
		overflows += row.FullResets + row.SetResets
		rebases += row.Rebases
		switches += row.FormatSwitches
	}
	if writes > 0 {
		m["secmem.reencryptions_per_write"] = float64(s.Reencryptions) / writes
		m["secmem.overflows_per_kwrite"] = float64(overflows) * 1e3 / writes
		m["secmem.rebases_per_kwrite"] = float64(rebases) * 1e3 / writes
		m["secmem.format_switches_per_kwrite"] = float64(switches) * 1e3 / writes
	}
	m["secmem.verified_fetches_per_op"] = float64(s.VerifiedFetches) / float64(s.Reads+s.Writes)

	if st.mem != nil {
		d := st.mem.Durability()
		if appends := d.Appends - m0.dur.Appends; appends > 0 {
			m["wal.fsyncs_per_write"] = float64(d.Fsyncs-m0.dur.Fsyncs) / float64(appends)
		}
		m["wal.group_commit_batch.p50"] = float64(obsHist("wal.group_commit.batch").Quantile(0.5))
		m["wal.fsync_us.p50"] = obsUS("wal.fsync.latency", 0.5)
		m["wal.fsync_us.p99"] = obsUS("wal.fsync.latency", 0.99)
		m["ckpt.delta_cut_ms.p50"] = cut.deltas.quantile(0.5) / 1e6
		if cut.deltaLines > 0 {
			m["ckpt.delta_bytes_per_dirty_line"] = float64(snap.Counters["durable.ckpt.delta_bytes"]-m0.snap.Counters["durable.ckpt.delta_bytes"]) / float64(cut.deltaLines)
		}
		m["ckpt.cut_write_p99_us"] = cutWrite.us(0.99)
	}

	m["proof.verify_us.p50"] = verify.us(0.5)
	if proofs > 0 {
		m["proof.bytes"] = float64(proofBytes) / float64(proofs)
	}
	codecMetrics(st, m)
	return m
}

// microIters is how many calls each codec, MAC and pad timing makes.
const microIters = 20000

// codecMetrics times the counter codec, the MAC and the AES pad on counter
// lines sampled from the run's own store.
func codecMetrics(st *stack, m map[string]float64) {
	enc, _, err := shard.Organization(organization)
	if err != nil {
		return
	}
	lines := sampleCounterLines(st.sh, 256)
	if len(lines) == 0 {
		return
	}
	blocks := make([]counters.Block, len(lines))
	for i, l := range lines {
		if blocks[i], err = enc.Decode(l); err != nil {
			return
		}
	}

	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i := 0; i < microIters; i++ {
		blk, _ := enc.Decode(lines[i%len(lines)])
		sinkBlock = blk
	}
	m["counters.decode_ns"] = float64(time.Since(start)) / microIters
	runtime.ReadMemStats(&b)
	m["counters.decode_allocs"] = float64(b.Mallocs-a.Mallocs) / microIters

	start = time.Now()
	for i := 0; i < microIters; i++ {
		sinkBytes = blocks[i%len(blocks)].Encode()
	}
	m["counters.encode_ns"] = float64(time.Since(start)) / microIters

	keyer, err := mac.New(st.key, mac.Width56)
	if err != nil {
		return
	}
	runtime.ReadMemStats(&a)
	start = time.Now()
	for i := 0; i < microIters; i++ {
		sinkU64 ^= keyer.Counter(lines[i%len(lines)], uint64(i), 0, uint64(i))
	}
	m["mac.counter_ns"] = float64(time.Since(start)) / microIters
	start = time.Now()
	for i := 0; i < microIters; i++ {
		sinkU64 ^= keyer.Data(lines[i%len(lines)], uint64(i), uint64(i)*lineBytes)
	}
	m["mac.data_ns"] = float64(time.Since(start)) / microIters
	runtime.ReadMemStats(&b)
	m["mac.allocs_per_call"] = float64(b.Mallocs-a.Mallocs) / (2 * microIters)

	cipher, err := aesctr.New(st.key)
	if err != nil {
		return
	}
	start = time.Now()
	for i := 0; i < microIters; i++ {
		pad := cipher.Pad(uint64(i)*lineBytes, uint64(i))
		sinkU64 ^= uint64(pad[0])
	}
	m["aesctr.pad_ns"] = float64(time.Since(start)) / microIters
}

// Sinks keep the timed calls from being optimized away.
var (
	sinkBlock counters.Block
	sinkBytes []byte
	sinkU64   uint64
)

// sampleCounterLines copies up to max encryption-counter lines present in
// shard 0's untrusted store. Callers must have stopped all traffic.
func sampleCounterLines(sh *shard.Sharded, max int) [][]byte {
	eng := sh.Shard(0)
	n := eng.Geometry().EncCounterLines
	var out [][]byte
	for idx := uint64(0); idx < n && len(out) < max; idx++ {
		if raw, ok := eng.Store().CounterLine(0, idx); ok {
			out = append(out, append([]byte(nil), raw...))
		}
	}
	return out
}
