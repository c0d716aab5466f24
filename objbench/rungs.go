package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"rain"
	"rain/internal/dstore"
	"rain/internal/rt"
	"rain/internal/rudp"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// The isolated rungs time one layer's public functions on their own, with
// the workload's object and shard sizes, after the cluster's traced window.

const blockSize = dstore.DefaultBlockSize

// encodeStreams encodes data with B-Code(6,4) into its six shard streams.
func encodeStreams(code rain.Code, data []byte) ([][]byte, error) {
	streams := make([][]byte, code.N())
	err := rain.EncodeReader(code, bytes.NewReader(data), blockSize, func(_ int, shards [][]byte, _ int) error {
		for i, s := range shards {
			streams[i] = append(streams[i], s...)
		}
		return nil
	})
	return streams, err
}

type eccResult struct {
	encodeMBps, decodeMBps, decode1MBps float64
	shard                               []byte // shard stream 0 of the object
}

// eccRung times EncodeReader, DecodeStreams over all six streams, and
// DecodeStreams with stream 0 missing, each for about d.
func eccRung(size int, d time.Duration) (*eccResult, error) {
	code, err := rain.NewBCode(clusterSize)
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	fillBody(data, 0, 1)
	streams, err := encodeStreams(code, data)
	if err != nil {
		return nil, err
	}
	res := &eccResult{shard: streams[0]}

	rate := func(fn func() error) (float64, error) {
		n := 0
		t0 := time.Now()
		for n == 0 || time.Since(t0) < d {
			if err := fn(); err != nil {
				return 0, err
			}
			n++
		}
		return float64(size) * float64(n) / time.Since(t0).Seconds() / 1e6, nil
	}
	discard := func(int, [][]byte, int) error { return nil }
	if res.encodeMBps, err = rate(func() error {
		return rain.EncodeReader(code, bytes.NewReader(data), blockSize, discard)
	}); err != nil {
		return nil, err
	}
	decode := func(missing int) func() error {
		out := bytes.NewBuffer(make([]byte, 0, size))
		return func() error {
			readers := make([]io.Reader, len(streams))
			for i, s := range streams {
				if i != missing {
					readers[i] = bytes.NewReader(s)
				}
			}
			out.Reset()
			if _, err := rain.DecodeStreams(code, out, readers, int64(size), blockSize); err != nil {
				return err
			}
			if !bytes.Equal(out.Bytes(), data) {
				return fmt.Errorf("ecc rung: decode with stream %d missing is not the object", missing)
			}
			return nil
		}
	}
	if res.decodeMBps, err = rate(decode(-1)); err != nil {
		return nil, err
	}
	if res.decode1MBps, err = rate(decode(0)); err != nil {
		return nil, err
	}
	return res, nil
}

type storageResult struct {
	commit           []time.Duration
	readVerifyMBps   float64
	verifyUsPerShard float64
}

// storageRung drives storage.NewFileBackend on dir, which should sit on a
// disk rather than tmpfs: Stage/Append/Commit of the workload's data shard
// over the working set's keys (and their gateway metadata shards, the
// population one node holds), ReadAt of every data shard, then
// Backend.Verify — the scrub primitive — over the whole population.
func storageRung(dir string, shard, metaShard []byte, keys, dataLen, metaLen int) (*storageResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b, err := storage.NewFileBackend(dir)
	if err != nil {
		return nil, err
	}
	const chunk = 32 << 10
	put := func(id string, p []byte, dataLen int) error {
		st := b.NewStage()
		for off := 0; off < len(p); off += chunk {
			end := off + chunk
			if end > len(p) {
				end = len(p)
			}
			if err := st.Append(p[off:end]); err != nil {
				st.Abort()
				return err
			}
		}
		return b.Commit(st, id, 0, dataLen, blockSize)
	}
	res := &storageResult{}
	for k := 0; k < keys; k++ {
		if err := put(".m:"+keyName(k), metaShard, metaLen); err != nil {
			return nil, err
		}
	}
	// At least one pass over the keys and 256 samples, so p99 rests on
	// more than two.
	for i := 0; i < keys || i < 256; i++ {
		t0 := time.Now()
		if err := put(keyName(i%keys), shard, dataLen); err != nil {
			return nil, err
		}
		res.commit = append(res.commit, time.Since(t0))
	}

	buf := make([]byte, len(shard))
	t0 := time.Now()
	for k := 0; k < keys; k++ {
		if err := b.ReadAt(keyName(k), buf, 0); err != nil {
			return nil, err
		}
	}
	res.readVerifyMBps = float64(keys*len(shard)) / time.Since(t0).Seconds() / 1e6

	objs := b.List()
	t0 = time.Now()
	for _, o := range objs {
		if _, _, err := b.Verify(o.ID); err != nil {
			return nil, err
		}
	}
	res.verifyUsPerShard = float64(time.Since(t0).Microseconds()) / float64(len(objs))
	return res, nil
}

// rudpRung streams 32 KiB chunks from one rudp.NewRealMesh mesh to another
// over loopback for d, under the dstore credit rule: at most
// dstore.DefaultWindow chunks unacknowledged by the receiver. It returns the
// delivered payload rate. The meshes report into their own registry so the
// cluster's counters stay clean.
func rudpRung(d time.Duration) (float64, error) {
	ports, err := reserveUDP(4)
	if err != nil {
		return 0, err
	}
	reg := telemetry.NewRegistry()
	la, lb := rt.New(1), rt.New(2)
	la.Start()
	lb.Start()
	defer la.Stop()
	defer lb.Stop()
	a, err := rudp.NewRealMesh(la, rudp.RealConfig{Name: "a", Locals: ports[:2],
		Peers: map[string][]string{"b": ports[2:]}, Conn: rudp.Config{Telemetry: reg}})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := rudp.NewRealMesh(lb, rudp.RealConfig{Name: "b", Locals: ports[2:],
		Peers: map[string][]string{"a": ports[:2]}, Conn: rudp.Config{Telemetry: reg}})
	if err != nil {
		return 0, err
	}
	defer b.Close()

	var delivered atomic.Int64
	lb.Call(func() {
		b.Handle("b", "chunk", func(from string, p []byte) {
			delivered.Add(int64(len(p)))
			b.SendService("b", from, "credit", nil)
		})
	})
	payload := make([]byte, dstore.DefaultChunkSize)
	running, inflight := true, 0 // loop-owned
	pump := func() {
		for running && inflight < dstore.DefaultWindow {
			a.SendService("a", "b", "chunk", payload)
			inflight++
		}
	}
	la.Call(func() {
		a.Handle("a", "credit", func(string, []byte) {
			inflight--
			pump()
		})
		pump()
	})
	// Wait out the handshake before timing.
	for deadline := time.Now().Add(5 * time.Second); delivered.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("rudp rung: no delivery over loopback")
		}
	}
	t0, n0 := time.Now(), delivered.Load()
	time.Sleep(d)
	n1, el := delivered.Load(), time.Since(t0)
	la.Call(func() { running = false })
	return float64(n1-n0) / el.Seconds() / 1e6, nil
}
