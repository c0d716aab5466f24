package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rain"
)

// callers is the closed loop's width: each caller waits for its reply
// before sending the next request.
const callers = 2

// workload is one traffic mix over one working set.
type workload struct {
	name     string
	size     int     // object bytes; every version of a key has this size
	keys     int     // working-set keys, all preloaded
	zipf     float64 // key popularity exponent; 0 is uniform
	putShare float64
	// overwrite makes PUTs replace keys of the working set in place. Without
	// it every key is written once: a PUT writes a fresh key, which takes
	// the place of the caller's oldest key in the working set, and that key
	// is then deleted, so no GET meets an overwrite and the working set
	// keeps its size.
	overwrite bool
	kill      bool // stop one node after preload and before warm-up
	// putTailQ and getTailQ fix the tail percentile per workload: the
	// highest that keeps at least ten samples beyond it in a 30 s traced
	// window at the rates this workload runs at here.
	putTailQ, getTailQ float64
	why                string
}

var workloads = []*workload{
	{name: "bulk", size: 4 << 20, keys: 8, putShare: 0.5, putTailQ: 0.96, getTailQ: 0.96,
		why: "4 MiB objects, 50% PUT of fresh keys: the bandwidth path (ecc, rudp wire, storage staging, gateway pipes)"},
	{name: "overwrite", size: 4 << 20, keys: 64, putShare: 0.5, overwrite: true, putTailQ: 0.96, getTailQ: 0.96,
		why: "bulk with PUTs that replace working-set keys in place: GETs after an overwrite"},
	{name: "small", size: 16 << 10, keys: 2048, zipf: 1.1, putShare: 0.1, overwrite: true, putTailQ: 0.97, getTailQ: 0.995,
		why: "16 KiB Zipf(1.1) keys, 90% GET: per-request cost and the control plane (membership, scrub over many shard files)"},
	{name: "degraded", size: 4 << 20, keys: 8, putShare: 0.1, kill: true, putTailQ: 0.8, getTailQ: 0.98,
		why: "4 MiB objects with one node stopped, 90% GET, PUTs of fresh keys: parity reconstruction, hedging and self-heal beside traffic"},
}

func keyName(k int) string { return fmt.Sprintf("k%05d", k) }

// op is one request of the stream: which key, PUT or GET, and which node's
// gateway or client serves it.
type op struct {
	put  bool
	key  int
	node int
}

// opGen draws one caller's op stream from the seed, so a replay of the
// same seed issues the same requests in the same order.
type opGen struct {
	w *workload
	r *rand.Rand
	z *rand.Zipf
}

func newOpGen(w *workload, seed int64, caller int) *opGen {
	r := rand.New(rand.NewSource(seed*1000003 + int64(caller)))
	g := &opGen{w: w, r: r}
	if w.zipf > 0 {
		g.z = rand.NewZipf(r, w.zipf, 1, uint64(w.keys-1))
	}
	return g
}

func (g *opGen) next(live []int) op {
	o := op{put: g.r.Float64() < g.w.putShare, node: live[g.r.Intn(len(live))]}
	if g.z != nil {
		o.key = int(g.z.Uint64())
	} else {
		o.key = g.r.Intn(g.w.keys)
	}
	return o
}

// target issues requests: through the HTTP gateways, or straight into the
// nodes' store clients for the dstore rung.
type target interface {
	put(caller int, o op, body []byte) (status int, err error)
	// get returns the body read into buf, which has room for one byte
	// more than the object so an over-long body shows.
	get(caller int, o op, buf []byte) (status int, body []byte, err error)
	del(caller int, o op) (status int, err error)
}

// httpTarget gives each caller its own transport, so each keeps its own
// keep-alive connection to every gateway.
type httpTarget struct {
	urls    []string
	clients []*http.Client
}

func newHTTPTarget(urls []string) *httpTarget {
	t := &httpTarget{urls: urls}
	for i := 0; i < callers; i++ {
		t.clients = append(t.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return t
}

func (t *httpTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

func (t *httpTarget) put(caller int, o op, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPut, t.urls[o.node]+"/o/"+keyName(o.key), bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := t.clients[caller].Do(req)
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, drain(resp)
}

func (t *httpTarget) get(caller int, o op, buf []byte) (int, []byte, error) {
	resp, err := t.clients[caller].Get(t.urls[o.node] + "/o/" + keyName(o.key))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, drain(resp)
	}
	n, err := io.ReadFull(resp.Body, buf)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil
	}
	return resp.StatusCode, buf[:n], err
}

func (t *httpTarget) del(caller int, o op) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, t.urls[o.node]+"/o/"+keyName(o.key), nil)
	if err != nil {
		return 0, err
	}
	resp, err := t.clients[caller].Do(req)
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, drain(resp)
}

// drain reads and closes a reply's body. The text of an error reply comes
// back as the error, so a failure's cause shows in the report.
func drain(resp *http.Response) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	msg, err := io.ReadAll(io.LimitReader(resp.Body, 512))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	return errors.New(strings.TrimSpace(string(msg)))
}

// dstoreTarget replays the op stream through Node.PutStream, Node.Get and
// Node.Delete, the store-client calls the gateway itself makes.
type dstoreTarget struct{ nodes []*rain.Node }

func (t dstoreTarget) put(_ int, o op, body []byte) (int, error) {
	err := t.nodes[o.node].PutStream(context.Background(), keyName(o.key), bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return 0, err
	}
	return http.StatusOK, nil
}

func (t dstoreTarget) get(_ int, o op, _ []byte) (int, []byte, error) {
	data, err := t.nodes[o.node].Get(context.Background(), keyName(o.key))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, data, nil
}

func (t dstoreTarget) del(_ int, o op) (int, error) {
	if err := t.nodes[o.node].Delete(context.Background(), keyName(o.key)); err != nil {
		return 0, err
	}
	return http.StatusNoContent, nil
}

// tally counts one window's outcomes. A request fails on a transport
// error, a non-2xx reply or a body that is not exactly some version of the
// key written so far; failures are never dropped from attempted.
type tally struct {
	attempted, failed, mismatched int
	ok                            []sample // successful requests
	elapsed                       time.Duration
	// examples keeps the first few failure causes for the report.
	examples []string
}

func (t *tally) fail(why string) {
	t.failed++
	if len(t.examples) < 4 {
		t.examples = append(t.examples, why)
	}
}

// reply counts a PUT or DELETE reply.
func (t *tally) reply(method string, status int, err error) bool {
	t.attempted++
	if err != nil || status/100 != 2 {
		t.fail(fmt.Sprintf("%s: status %d: %v", method, status, err))
		return false
	}
	return true
}

func (t *tally) getReply(status int, body []byte, err error, size, key int, latest uint64) bool {
	t.attempted++
	if err != nil || status != http.StatusOK {
		t.fail(fmt.Sprintf("get: status %d: %v", status, err))
		return false
	}
	if err := checkBody(body, size, key, latest); err != nil {
		t.fail(fmt.Sprintf("get %s: %v", keyName(key), err))
		t.mismatched++
		return false
	}
	return true
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatched += o.mismatched
	for _, e := range o.examples {
		if len(t.examples) < 4 {
			t.examples = append(t.examples, e)
		}
	}
	t.ok = append(t.ok, o.ok...)
	if o.elapsed > t.elapsed {
		t.elapsed = o.elapsed
	}
}

// sample is one successful PUT or GET.
type sample struct {
	lat time.Duration
	put bool
}

// latencies returns the successful requests' latencies in milliseconds,
// PUTs and GETs apart.
func (t *tally) latencies() (put, get []float64) {
	for _, s := range t.ok {
		if s.put {
			put = append(put, float64(s.lat)/1e6)
		} else {
			get = append(get, float64(s.lat)/1e6)
		}
	}
	return put, get
}

// span is one request as the benchmark saw it from outside a layer.
type span struct {
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	Key     int    `json:"key"`
	Node    int    `json:"node"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	OK      bool   `json:"ok"`
}

// store is the working set's write history: the newest version any PUT of
// each preloaded key has started with and, where keys are written once,
// each caller's share of the working set.
type store struct {
	w     *workload
	vers  []atomic.Uint64
	rings [callers]ring
}

// ring is one caller's share of a written-once working set, oldest key
// first from head on. Only its caller touches it. The caller's n-th fresh
// key is keys + n*callers + caller, so a replay of a seed writes the same
// keys.
type ring struct {
	keys        []int
	head, fresh int
}

func newStore(w *workload) *store {
	s := &store{w: w, vers: make([]atomic.Uint64, w.keys)}
	if !w.overwrite {
		for k := 0; k < w.keys; k++ {
			s.rings[k%callers].keys = append(s.rings[k%callers].keys, k)
		}
	}
	return s
}

// latest is the newest version of key any PUT has started with.
func (s *store) latest(key int) uint64 {
	if key >= s.w.keys {
		return 1
	}
	return s.vers[key].Load()
}

// runLoad drives the closed loop for d and returns the merged tally. With
// layer non-empty every request is also recorded as a span of that layer.
// Where keys are written once, a successful PUT is followed by the DELETE
// of the key it displaced from the working set; the DELETE counts as an
// attempt but not in the goodput.
func runLoad(t target, s *store, live []int, seed int64, d time.Duration, layer string) (*tally, []span) {
	var (
		wg      sync.WaitGroup
		tallies [callers]tally
		spans   [callers][]span
	)
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newOpGen(s.w, seed, c)
			tl := &tallies[c]
			putBuf := make([]byte, s.w.size)
			getBuf := make([]byte, s.w.size+1)
			rg := &s.rings[c]
			record := func(name string, o op, t0 time.Time, ok bool) {
				if layer != "" {
					spans[c] = append(spans[c], span{Layer: layer, Op: name, Key: o.key, Node: o.node,
						StartNS: t0.Sub(start).Nanoseconds(), DurNS: time.Since(t0).Nanoseconds(), OK: ok})
				}
			}
			for time.Since(start) < d {
				o := g.next(live)
				switch {
				case !o.put:
					if !s.w.overwrite {
						o.key = rg.keys[o.key%len(rg.keys)]
					}
					t0 := time.Now()
					status, body, err := t.get(c, o, getBuf)
					lat := time.Since(t0)
					ok := tl.getReply(status, body, err, s.w.size, o.key, s.latest(o.key))
					if ok {
						tl.ok = append(tl.ok, sample{lat: lat})
					}
					record("get", o, t0, ok)
				case s.w.overwrite:
					fillBody(putBuf, o.key, s.vers[o.key].Add(1))
					t0 := time.Now()
					status, err := t.put(c, o, putBuf)
					lat := time.Since(t0)
					ok := tl.reply("put", status, err)
					if ok {
						tl.ok = append(tl.ok, sample{lat: lat, put: true})
					}
					record("put", o, t0, ok)
				default:
					o.key = s.w.keys + rg.fresh*callers + c
					rg.fresh++
					fillBody(putBuf, o.key, 1)
					t0 := time.Now()
					status, err := t.put(c, o, putBuf)
					lat := time.Since(t0)
					ok := tl.reply("put", status, err)
					record("put", o, t0, ok)
					if !ok {
						break
					}
					tl.ok = append(tl.ok, sample{lat: lat, put: true})
					old := op{key: rg.keys[rg.head], node: o.node}
					rg.keys[rg.head] = o.key
					rg.head = (rg.head + 1) % len(rg.keys)
					t0 = time.Now()
					status, err = t.del(c, old)
					record("delete", old, t0, tl.reply("delete", status, err))
				}
				tl.elapsed = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	total := &tally{}
	var all []span
	for c := range tallies {
		total.merge(&tallies[c])
		all = append(all, spans[c]...)
	}
	return total, all
}

// preload writes version 1 of every key through the gateways, spreading
// keys over the callers. A failed PUT is retried with backoff and counted;
// a key that cannot be written fails the run.
func preload(t target, s *store, live []int) (retries int, err error) {
	var wg sync.WaitGroup
	var nretry atomic.Int64
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := make([]byte, s.w.size)
			for k := c; k < s.w.keys; k += callers {
				fillBody(body, k, s.vers[k].Add(1))
				o := op{put: true, key: k, node: live[k%len(live)]}
				var status int
				var err error
				n, ok := retry(func() bool {
					status, err = t.put(c, o, body)
					return err == nil && status/100 == 2
				})
				nretry.Add(int64(n))
				if !ok {
					errs[c] = fmt.Errorf("preload %s: status %d: %v", keyName(k), status, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return int(nretry.Load()), errors.Join(errs...)
}

// retry calls try until it reports success, sleeping between attempts with
// backoff from 10 ms doubling to 1 s, and gives up after 13 attempts. It
// returns how many retries it made and whether try succeeded.
func retry(try func() bool) (retries int, ok bool) {
	backoff := 10 * time.Millisecond
	for ; retries < 12; retries++ {
		if try() {
			return retries, true
		}
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
	}
	return retries, try()
}
