package main

import (
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"rain"
)

// probe samples the cluster from outside while a traced window runs: a
// no-op Node.Call every 10 ms on each live node times how long a posted
// closure waits for the node's event loop, Node.View every 50 ms follows
// membership, and the heap is sampled for its peak.
type probe struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu          sync.Mutex
	lags        []time.Duration
	viewChanges int
	minView     int
	heapPeak    uint64
}

const (
	lagEvery  = 10 * time.Millisecond
	viewEvery = 5 // lag ticks per view poll
)

func startProbe(c *cluster) *probe {
	p := &probe{stop: make(chan struct{}), minView: clusterSize}
	for _, i := range c.live {
		p.wg.Add(1)
		go p.node(c.nodes[i])
	}
	p.wg.Add(1)
	go p.heap()
	return p
}

func (p *probe) node(n *rain.Node) {
	defer p.wg.Done()
	tick := time.NewTicker(lagEvery)
	defer tick.Stop()
	prev := ""
	for i := 0; ; i++ {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		n.Call(func() {})
		lag := time.Since(t0)
		var view []string
		if i%viewEvery == 0 {
			view = n.View()
		}
		p.mu.Lock()
		p.lags = append(p.lags, lag)
		if view != nil {
			sort.Strings(view)
			cur := strings.Join(view, ",")
			if prev != "" && cur != prev {
				p.viewChanges++
			}
			prev = cur
			if len(view) < p.minView {
				p.minView = len(view)
			}
		}
		p.mu.Unlock()
	}
}

func (p *probe) heap() {
	defer p.wg.Done()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for {
		metrics.Read(s)
		p.mu.Lock()
		if v := s[0].Value.Uint64(); v > p.heapPeak {
			p.heapPeak = v
		}
		p.mu.Unlock()
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops every probe goroutine and waits for them.
func (p *probe) finish() {
	close(p.stop)
	p.wg.Wait()
}

// procCounters reads the runtime's cumulative allocation and CPU figures.
type procCounters struct{ allocBytes, gcCPU, totalCPU float64 }

func readProc() procCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return procCounters{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}
