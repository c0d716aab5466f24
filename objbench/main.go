// Command objbench is the object store's end-to-end benchmark: it runs one
// workload against a six-node cluster of rain.StartNode nodes in this
// process, over real loopback UDP meshes, file-backed shard stores and
// HTTP gateways on loopback listeners, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1) as the
// last line of standard output. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rain"
	"rain/internal/telemetry"
)

const (
	// setups is how many clusters a run sets up and loads in turn; setup_s
	// is the median of their set-up times.
	setups = 5
	warmup = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: bulk, degraded, overwrite or small")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds: the end-to-end windows of the clusters together, and each traced window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	work := flag.String("workdir", ".bench_build", "directory for shard stores, the disk rung and spans")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "objbench: unknown workload %q or bad flags\n", *name)
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("objbench-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "objbench:", err)
		os.Exit(1)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "objbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "objbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures one workload on setups clusters in turn, each set up from
// scratch, read back, warmed and loaded for d/setups. The end-to-end rates
// and GET median are medians over the clusters' windows, which differ from
// cluster to cluster more than a window's own noise; ok_share pools every
// request, so each failure counts. A body that fails verification in any
// window clears correct.
// A traced run then measures the per-layer metrics on the last cluster,
// with a traced window and a dstore replay of d each.
func run(w *workload, seed int64, d time.Duration, traced bool, dir string) (*result, error) {
	var (
		setupS, rates, getP50 []float64
		retries               int
		correct               = true
		total                 = &tally{}
		per                   = d / setups
	)
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		c, err := startCluster(filepath.Join(dir, fmt.Sprintf("cluster%d", i)), seed)
		if err != nil {
			return nil, err
		}
		s := newStore(w)
		ht := newHTTPTarget(c.urls)
		r, err := preload(ht, s, c.live)
		retries += r
		if err == nil {
			setupS = append(setupS, time.Since(t0).Seconds())
			var ok bool
			ok, err = readBack(ht, s, c.live)
			correct = correct && ok
		}
		if err != nil {
			ht.close()
			c.stop()
			return nil, err
		}
		if w.kill {
			c.kill(clusterSize - 1)
			if err := c.waitViews(30 * time.Second); err != nil {
				ht.close()
				c.stop()
				return nil, err
			}
		}
		runLoad(ht, s, c.live, seed+7919, warmup, "")
		winSeed := seed + int64(i)*104729
		tl, _ := runLoad(ht, s, c.live, winSeed, per, "")
		f := window(w, tl)
		report(w, fmt.Sprintf("cluster %d untraced", i), tl, f)
		rates = append(rates, f["goodput_ops"].Value)
		getP50 = append(getP50, f["get_p50_ms"].Value)
		total.merge(tl)

		if traced && i == setups-1 {
			lm, ttl, spans, err := layers(w, c, s, ht, winSeed, d, dir, f)
			ht.close()
			c.stop()
			if err == nil {
				err = writeSpans(filepath.Join(dir, "..", fmt.Sprintf("objbench-spans-%s-%d.jsonl", w.name, seed)), spans)
			}
			if err != nil {
				return nil, err
			}
			lm["setup_retries"] = metric{float64(retries), "count"}
			correct = correct && total.mismatched == 0 && ttl.mismatched == 0
			return &result{Correct: correct, Attempted: ttl.attempted, Failed: ttl.failed, Metrics: lm}, nil
		}
		ht.close()
		c.stop()
	}
	all := window(w, total)
	ops := median(rates)
	m := map[string]metric{
		"setup_s":      {median(setupS), "s"},
		"goodput_MBps": {ops * float64(w.size) / 1e6, "MB/s"},
		"goodput_ops":  {ops, "1/s"},
		"get_p50_ms":   {median(getP50), "ms"},
		"ok_share":     all["ok_share"],
	}
	fmt.Fprintf(os.Stderr, "%s: setup retries %d; end-to-end:\n", w.name, retries)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	correct = correct && total.mismatched == 0
	return &result{Correct: correct, Attempted: total.attempted, Failed: total.failed, Metrics: m}, nil
}

// readBack GETs every key once before any overwrite: each holds the one
// version preload wrote, so a reply of other bytes is wrong output whatever
// the concurrency. Non-2xx replies are retried with backoff like preload.
func readBack(t target, s *store, live []int) (bool, error) {
	buf := make([]byte, s.w.size+1)
	correct := true
	for k := 0; k < s.w.keys; k++ {
		o := op{key: k, node: live[(k+1)%len(live)]}
		var (
			status int
			body   []byte
			err    error
		)
		if _, ok := retry(func() bool {
			status, body, err = t.get(0, o, buf)
			return err == nil && status == 200
		}); !ok {
			return false, fmt.Errorf("read-back %s: status %d: %v", keyName(k), status, err)
		}
		if err := checkBody(body, s.w.size, k, 1); err != nil {
			fmt.Fprintf(os.Stderr, "read-back of %s: %v\n", keyName(k), err)
			correct = false
		}
	}
	return correct, nil
}

// window derives every latency and rate figure of one measured window.
// ok_share stands where fail_share would in the end-to-end list, and the
// PUT median and both tails are per-layer metrics: the end-to-end list
// holds metrics that are never 0 and repeat within their bounds.
func window(w *workload, tl *tally) map[string]metric {
	put, get := tl.latencies()
	ops := float64(len(tl.ok)) / tl.elapsed.Seconds()
	return map[string]metric{
		"goodput_MBps": {ops * float64(w.size) / 1e6, "MB/s"},
		"goodput_ops":  {ops, "1/s"},
		"put_p50_ms":   {quantile(put, 0.5), "ms"},
		"get_p50_ms":   {quantile(get, 0.5), "ms"},
		"put_tail_ms":  {quantile(put, w.putTailQ), "ms"},
		"get_tail_ms":  {quantile(get, w.getTailQ), "ms"},
		"ok_share":     {1 - float64(tl.failed)/float64(tl.attempted), "share"},
		"fail_share":   {float64(tl.failed) / float64(tl.attempted), "share"},
	}
}

// report prints a window's figures on standard error: tail percentiles
// with their sample counts, and the first failures by cause.
func report(w *workload, label string, tl *tally, f map[string]metric) {
	put, get := tl.latencies()
	fmt.Fprintf(os.Stderr, "%s %s: attempted %d, failed %d (verification mismatches %d)\n",
		w.name, label, tl.attempted, tl.failed, tl.mismatched)
	for _, e := range tl.examples {
		fmt.Fprintf(os.Stderr, "  failure: %s\n", e)
	}
	fmt.Fprintf(os.Stderr, "  put tail = p%g of %d samples (%d beyond); get tail = p%g of %d samples (%d beyond)\n",
		100*w.putTailQ, len(put), beyond(put, f["put_tail_ms"].Value),
		100*w.getTailQ, len(get), beyond(get, f["get_tail_ms"].Value))
	for _, k := range sortedKeys(f) {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, f[k].Value, f[k].Unit)
	}
}

// layers runs the traced half of a --trace 1 run on the warmed cluster:
// the traced gateway window with the probes and registry deltas, the
// dstore replay of the same op stream, and the isolated rungs. base holds
// the untraced window's metrics, for the tracing overhead.
func layers(w *workload, c *cluster, s *store, ht *httpTarget, seed int64, d time.Duration, dir string, base map[string]metric) (map[string]metric, *tally, []span, error) {
	reg := telemetry.Default()
	r0, err := readRegistry(reg)
	if err != nil {
		return nil, nil, nil, err
	}
	p0 := readProc()
	pr := startProbe(c)
	tl, spans := runLoad(ht, s, c.live, seed, d, "gateway")
	pr.finish()
	p1 := readProc()
	r1, err := readRegistry(reg)
	if err != nil {
		return nil, nil, nil, err
	}
	gw := window(w, tl)
	report(w, "traced", tl, gw)

	dt, dspans := runLoad(dstoreTarget{c.nodes}, s, c.live, seed, d, "dstore")
	ds := window(w, dt)
	report(w, "dstore replay", dt, ds)
	spans = append(spans, dspans...)

	const rungTime = 300 * time.Millisecond
	ec, err := eccRung(w.size, rungTime)
	if err != nil {
		return nil, nil, nil, err
	}
	code, err := rain.NewBCode(clusterSize)
	if err != nil {
		return nil, nil, nil, err
	}
	// The gateway's metadata record is a ~100-byte JSON object.
	meta := make([]byte, 104)
	fillBody(meta, 0, 1)
	metaStreams, err := encodeStreams(code, meta)
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := storageRung(filepath.Join(dir, "disk"), ec.shard, metaStreams[0], w.keys, w.size, len(meta))
	if err != nil {
		return nil, nil, nil, err
	}
	loopback, err := rudpRung(time.Second)
	if err != nil {
		return nil, nil, nil, err
	}

	lags := make([]float64, len(pr.lags))
	for i, l := range pr.lags {
		lags[i] = float64(l) / 1e6
	}
	commit := millis(st.commit)
	hedges, won := counter(r0, r1, "dstore.client.hedges_fired"), counter(r0, r1, "dstore.client.hedges_won")
	hits, misses := counter(r0, r1, "netbuf.pool.hits"), counter(r0, r1, "netbuf.pool.misses")
	sent, rexmit := counter(r0, r1, "rudp.conn.sent"), counter(r0, r1, "rudp.conn.retransmits")
	m := map[string]metric{
		"fail_share":        gw["fail_share"],
		"put_p50_ms":        gw["put_p50_ms"],
		"put_tail_ms":       gw["put_tail_ms"],
		"get_tail_ms":       gw["get_tail_ms"],
		"verify_mismatches": {float64(tl.mismatched), "count"},

		"gateway.put_overhead_share": {1 - ratio(ds["put_p50_ms"].Value, gw["put_p50_ms"].Value), "share"},
		"gateway.get_overhead_share": {1 - ratio(ds["get_p50_ms"].Value, gw["get_p50_ms"].Value), "share"},
		"gateway.admission_rejected": {counter(r0, r1, "gateway.admission.rejected"), "count"},

		"proc.alloc_bytes_per_op": {ratio(p1.allocBytes-p0.allocBytes, float64(tl.attempted)), "B"},
		"proc.gc_cpu_share":       {ratio(p1.gcCPU-p0.gcCPU, p1.totalCPU-p0.totalCPU), "share"},
		"proc.heap_peak_MB":       {float64(pr.heapPeak) / 1e6, "MB"},

		"dstore.put_p50_ms":             {ds["put_p50_ms"].Value, "ms"},
		"dstore.get_p50_ms":             {ds["get_p50_ms"].Value, "ms"},
		"dstore.get_tail_ms":            {ds["get_tail_ms"].Value, "ms"},
		"dstore.quorum_wait_p50_ms":     {histDelta(r0, r1, "dstore.client.quorum_wait_ns").quantile(0.5) / 1e6, "ms"},
		"dstore.credit_stalls":          {counter(r0, r1, "dstore.client.credit_stalls"), "count"},
		"dstore.hedges_fired":           {hedges, "count"},
		"dstore.hedge_win_share":        {ratio(won, hedges), "share"},
		"rt.call_lag_p50_us":            {1000 * quantile(lags, 0.5), "us"},
		"rt.call_lag_p99_ms":            {quantile(lags, 0.99), "ms"},
		"rt.call_lag_max_ms":            {quantile(lags, 1), "ms"},
		"membership.view_changes":       {float64(pr.viewChanges), "count"},
		"membership.min_view":           {float64(pr.minView), "count"},
		"storage.commit_p50_us":         {1000 * quantile(commit, 0.5), "us"},
		"storage.commit_p99_us":         {1000 * quantile(commit, 0.99), "us"},
		"storage.read_verify_MBps":      {st.readVerifyMBps, "MB/s"},
		"storage.verify_us_per_shard":   {st.verifyUsPerShard, "us"},
		"scrub.bytes_verified":          {counter(r0, r1, "scrub.bytes_verified"), "B"},
		"scrub.passes":                  {counter(r0, r1, "scrub.passes"), "count"},
		"ecc.encode_MBps":               {ec.encodeMBps, "MB/s"},
		"ecc.decode_MBps":               {ec.decodeMBps, "MB/s"},
		"ecc.decode_1erasure_MBps":      {ec.decode1MBps, "MB/s"},
		"rudp.loopback_MBps":            {loopback, "MB/s"},
		"rudp.retransmit_share":         {ratio(rexmit, sent+rexmit), "share"},
		"rudp.rtt_p50_us":               {histDelta(r0, r1, "rudp.conn.rtt_ns").quantile(0.5) / 1e3, "us"},
		"rudp.batch_datagrams_mean":     {histDelta(r0, r1, "rudp.udp.batch_datagrams").mean(), "count"},
		"rudp.sends_shed":               {counter(r0, r1, "rudp.mesh.sends_shed"), "count"},
		"netbuf.pool_hit_share":         {ratio(hits, hits+misses), "share"},
		"rebalance.passes":              {counter(r0, r1, "rebalance.passes"), "count"},
		"rebalance.bytes_reconstructed": {counter(r0, r1, "rebalance.bytes_reconstructed"), "B"},

		"ladder.gateway_MBps":        {gw["goodput_MBps"].Value, "MB/s"},
		"ladder.dstore_MBps":         {ds["goodput_MBps"].Value, "MB/s"},
		"ladder.gateway_over_dstore": {ratio(gw["goodput_MBps"].Value, ds["goodput_MBps"].Value), "ratio"},
		"ladder.dstore_over_rudp":    {ratio(ds["goodput_MBps"].Value, loopback), "ratio"},

		"trace.overhead_goodput_MBps": {gw["goodput_MBps"].Value - base["goodput_MBps"].Value, "MB/s"},
		"trace.overhead_get_p50_ms":   {gw["get_p50_ms"].Value - base["get_p50_ms"].Value, "ms"},
		"trace.overhead_ok_share":     {gw["ok_share"].Value - base["ok_share"].Value, "share"},
	}
	fmt.Fprintf(os.Stderr, "%s ladder: gateway %.2f MB/s over dstore %.2f MB/s = %.3f; dstore %.2f MB/s over rudp loopback %.2f MB/s = %.3f\n",
		w.name, gw["goodput_MBps"].Value, ds["goodput_MBps"].Value, m["ladder.gateway_over_dstore"].Value,
		ds["goodput_MBps"].Value, loopback, m["ladder.dstore_over_rudp"].Value)
	fmt.Fprintf(os.Stderr, "%s per-layer (traced window):\n", w.name)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, tl, spans, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the recorded request spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
