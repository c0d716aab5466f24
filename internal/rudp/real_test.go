package rudp

import (
	"fmt"
	"testing"
	"time"

	"rain/internal/rt"
	"rain/internal/telemetry"
)

// startMesh builds a loop+mesh bound to ephemeral loopback ports.
func startMesh(t *testing.T, name string, paths int, peers map[string][]string) (*rt.Loop, *RealMesh) {
	t.Helper()
	loop := rt.New(int64(len(name)) + 7)
	loop.Start()
	locals := make([]string, paths)
	for i := range locals {
		locals[i] = "127.0.0.1:0"
	}
	m, err := NewRealMesh(loop, RealConfig{Name: name, Locals: locals, Peers: peers})
	if err != nil {
		loop.Stop()
		t.Fatalf("mesh %s: %v", name, err)
	}
	return loop, m
}

// Two meshes exchange service datagrams both ways over real sockets,
// including a peer that was only learned from the inbound hello.
func TestRealMeshRoundTrip(t *testing.T) {
	la, a := startMesh(t, "a", 2, nil)
	defer la.Stop()
	defer a.Close()

	// b knows a from its book; a learns b from b's hello.
	lb, b := startMesh(t, "b", 2, map[string][]string{"a": a.LocalAddrs()})
	defer lb.Stop()
	defer b.Close()

	atA := make(chan string, 16)
	atB := make(chan string, 16)
	la.Call(func() {
		a.Handle("a", "echo", func(from string, payload []byte) {
			atA <- from + ":" + string(payload)
			a.SendService("a", from, "echo", append([]byte("re-"), payload...))
		})
	})
	lb.Call(func() {
		b.Handle("b", "echo", func(from string, payload []byte) {
			atB <- from + ":" + string(payload)
		})
	})

	lb.Post(func() { b.SendService("b", "a", "echo", []byte("hi")) })

	want := func(ch chan string, want string) {
		t.Helper()
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q", want)
		}
	}
	want(atA, "b:hi")
	want(atB, "a:re-hi")

	// Loopback delivery works without sockets.
	lb.Post(func() { b.SendService("b", "b", "echo", []byte("self")) })
	want(atB, "b:self")
}

// A restarted peer (same addresses, new incarnation) is detected via the
// hello handshake: the conn pair resets and traffic resumes, and the
// liveness callback reports the outage.
func TestRealMeshPeerRestart(t *testing.T) {
	la, a := startMesh(t, "a", 1, nil)
	defer la.Stop()
	defer a.Close()

	lb, b := startMesh(t, "b", 1, map[string][]string{"a": a.LocalAddrs()})
	bAddrs := b.LocalAddrs()

	atA := make(chan string, 64)
	upDown := make(chan bool, 64)
	la.Call(func() {
		a.Handle("a", "t", func(from string, payload []byte) { atA <- string(payload) })
	})
	a.OnPeerChange(func(name string, up bool) {
		if name == "b" {
			upDown <- up
		}
	})
	lb.Post(func() { b.SendService("b", "a", "t", []byte("one")) })

	recv := func(want string) {
		t.Helper()
		for {
			select {
			case got := <-atA:
				if got == want {
					return
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("timed out waiting for %q", want)
			}
		}
	}
	waitFlip := func(want bool) {
		t.Helper()
		for {
			select {
			case got := <-upDown:
				if got == want {
					return
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("timed out waiting for up=%v", want)
			}
		}
	}
	recv("one")
	waitFlip(true)

	// Kill b; a's ping monitors notice the silence.
	b.Close()
	lb.Stop()
	waitFlip(false)

	// Restart b on the same addresses with a fresh incarnation.
	lb2 := rt.New(99)
	lb2.Start()
	defer lb2.Stop()
	b2, err := NewRealMesh(lb2, RealConfig{Name: "b", Locals: bAddrs, Peers: map[string][]string{"a": a.LocalAddrs()}})
	if err != nil {
		t.Fatalf("restart b: %v", err)
	}
	defer b2.Close()
	lb2.Post(func() { b2.SendService("b", "a", "t", []byte("two")) })
	recv("two")
	waitFlip(true)
}

// Sends to an unreachable peer queue up to the backlog cap and are shed
// beyond it instead of growing without bound.
func TestRealMeshBacklogCap(t *testing.T) {
	loop := rt.New(5)
	loop.Start()
	defer loop.Stop()
	m, err := NewRealMesh(loop, RealConfig{
		Name:       "a",
		Locals:     []string{"127.0.0.1:0"},
		Peers:      map[string][]string{"ghost": {"127.0.0.1:9"}}, // discard port
		MaxBacklog: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	loop.Call(func() {
		for i := 0; i < 100; i++ {
			m.SendService("a", "ghost", "t", []byte(fmt.Sprintf("m%d", i)))
		}
		if got := m.Backlog("ghost"); got > 8 {
			t.Errorf("backlog %d exceeds cap 8", got)
		}
	})
}

// fanInWindow is one dstore get stream's credit window in 32 KiB chunks:
// the client's Window (4) plus one block piece.
const fanInWindow = 5

// Four senders each burst one credit window of 32 KiB datagrams into one
// receiver at once — a get drawing on four holders. With path sockets sized
// to the fan-in, every datagram arrives first time: no kernel drop, no
// retransmission. A host whose caps keep the buffer below the burst skips,
// naming the size it granted.
func TestRealMeshFanIn(t *testing.T) {
	const senders, size = 4, 32 << 10
	regR := telemetry.NewRegistry()
	lr := rt.New(1)
	lr.Start()
	defer lr.Stop()
	r, err := NewRealMesh(lr, RealConfig{Name: "r", Locals: []string{"127.0.0.1:0"}, Conn: Config{Telemetry: regR}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The kernel charges each datagram's truesize (a little over its
	// payload) against the reported limit; ask for twice the burst.
	burst := senders * fanInWindow * size
	if granted := r.rcvBuf.Value(); granted < int64(2*burst) {
		t.Skipf("host granted a %d-byte receive buffer, below the %d bytes a %d×%d×32 KiB fan-in needs (net.core.rmem_max caps it)",
			granted, 2*burst, senders, fanInWindow)
	}

	got := make(chan string, senders*(fanInWindow+1))
	lr.Call(func() {
		r.Handle("r", "t", func(from string, payload []byte) { got <- from })
	})
	recv := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatalf("received %d of %d datagrams", i, n)
			}
		}
	}

	regS := telemetry.NewRegistry()
	type sender struct {
		loop *rt.Loop
		mesh *RealMesh
	}
	var ss []sender
	for i := 0; i < senders; i++ {
		name := fmt.Sprintf("s%d", i)
		l := rt.New(int64(i + 2))
		l.Start()
		defer l.Stop()
		m, err := NewRealMesh(l, RealConfig{Name: name, Locals: []string{"127.0.0.1:0"},
			Peers: map[string][]string{"r": r.LocalAddrs()}, Conn: Config{Telemetry: regS}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ss = append(ss, sender{l, m})
		// Handshake with one small datagram so the burst leaves at once.
		l.Post(func() { m.SendService(name, "r", "t", []byte("hi")) })
	}
	recv(senders)

	payload := make([]byte, size)
	start := make(chan struct{})
	for i, s := range ss {
		name, s := fmt.Sprintf("s%d", i), s
		go func() {
			<-start
			s.loop.Post(func() {
				for j := 0; j < fanInWindow; j++ {
					s.mesh.SendService(name, "r", "t", payload)
				}
			})
		}()
	}
	close(start)
	recv(senders * fanInWindow)

	if n := counterValue(regS, "rudp.conn.retransmits"); n != 0 {
		t.Errorf("senders retransmitted %d datagrams", n)
	}
	if n := counterValue(regR, "rudp.udp.rcvbuf_drops"); n != 0 {
		t.Errorf("receiver's kernel dropped %d datagrams", n)
	}
}

func counterValue(reg *telemetry.Registry, name string) uint64 {
	for _, f := range reg.Snapshot().Families {
		if f.Name == name && len(f.Series) > 0 {
			return f.Series[0].Counter
		}
	}
	return 0
}
