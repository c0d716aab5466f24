package main

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

// memTarget is an in-memory object store that records every request.
type memTarget struct {
	mu      sync.Mutex
	size    int
	objs    map[int][]byte
	puts    map[int]int
	getGone int // GETs of keys never written or already deleted
}

func newMemTarget(size int) *memTarget {
	return &memTarget{size: size, objs: map[int][]byte{}, puts: map[int]int{}}
}

func (m *memTarget) put(_ int, o op, body []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objs[o.key] = append([]byte(nil), body...)
	m.puts[o.key]++
	return http.StatusOK, nil
}

func (m *memTarget) get(_ int, o op, buf []byte) (int, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.objs[o.key]
	if !ok {
		m.getGone++
		return http.StatusNotFound, nil, nil
	}
	return http.StatusOK, buf[:copy(buf, b)], nil
}

func (m *memTarget) del(_ int, o op) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.objs, o.key)
	return http.StatusNoContent, nil
}

// Where keys are written once, no key is PUT twice, no GET meets a deleted
// key, and the working set keeps its size.
func TestWriteOnceRotation(t *testing.T) {
	w := &workload{name: "t", size: 64, keys: 8, putShare: 0.5}
	s := newStore(w)
	m := newMemTarget(w.size)
	live := []int{0, 1, 2}
	if _, err := preload(m, s, live); err != nil {
		t.Fatal(err)
	}
	tl, _ := runLoad(m, s, live, 1, 50*time.Millisecond, "")
	if tl.attempted == 0 || tl.failed != 0 || m.getGone != 0 {
		t.Fatalf("attempted %d, failed %d, GETs of absent keys %d; examples %v", tl.attempted, tl.failed, m.getGone, tl.examples)
	}
	for k, n := range m.puts {
		if n != 1 {
			t.Fatalf("key %d written %d times", k, n)
		}
	}
	if len(m.objs) != w.keys {
		t.Fatalf("%d objects stored, want the working set of %d", len(m.objs), w.keys)
	}
	if len(m.puts) <= w.keys {
		t.Fatalf("no fresh key written in %d requests", tl.attempted)
	}
}
