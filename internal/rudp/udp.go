package rudp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rain/internal/netbuf"
	"rain/internal/telemetry"
)

// maxDatagram bounds one received UDP datagram (64 KiB, the protocol
// maximum).
const maxDatagram = 64 * 1024

// sockBufBytes is the kernel receive and send buffer every path socket
// asks for. The receive side has to absorb the worst burst the dstore
// credit windows let converge on one node before its read loop drains it:
//
//   - a get keeps Window + one block piece = 5 chunks of 32 KiB (160 KiB)
//     in flight from each holder it reads, and a hedged or degraded get
//     reads from up to n-1 = 5 remote holders of B-Code(6,4): 800 KiB;
//   - a put keeps Window = 4 chunks (128 KiB) in flight to each holder;
//   - a node runs several operations at once (two gets and two puts is
//     1.9 MiB), and with one bundled path down all of it lands on the
//     surviving path's socket;
//   - the kernel charges each datagram's buffer overhead (truesize, about
//     35 KiB for a 32 KiB datagram on loopback) against the limit.
//
// That is ~2 MiB of truesize for an ordinary mix; 4 MiB (which Linux
// doubles to an 8 MiB limit) leaves room for hedges and retransmissions.
// The kernel default of 208 KiB holds about six such datagrams: a 4 MiB
// bulk GET overflowed it thousands of times per run, each drop stalling its
// stream until recovered.
const sockBufBytes = 4 << 20

// bindUDP binds one path socket with sockBufBytes buffers and returns the
// receive buffer size the kernel granted.
func bindUDP(addr string) (*net.UDPConn, int, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, 0, fmt.Errorf("rudp: resolving %s: %w", addr, err)
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, 0, fmt.Errorf("rudp: binding %s: %w", addr, err)
	}
	return sock, sizeSocketBuffers(sock, sockBufBytes), nil
}

// UDPNode drives a Conn over real UDP sockets, one socket per bundled path —
// the deployment the paper ran on its testbed. Like the original RUDP it
// keeps every piece of protocol state in user space: the kernel is used only
// for unreliable packet delivery (§2.5), which is what made transparent
// checkpointing of communicating processes possible.
//
// Socket writes never happen under the connection lock: every entry point
// runs the state machine with mu held, which stages outgoing datagrams on
// outq, then unlocks and flushes the staged batch — so a slow or blocking
// send on one path never stalls the read loops' OnWire delivery, and a whole
// window of datagrams reaches the socket layer as one batch (one sendmmsg
// syscall per path on Linux).
//
// Lifecycle: NewUDPNode binds the local sockets; Connect supplies the remote
// addresses and starts the receive and timer loops; Close stops them by
// closing the sockets (the read loops exit on net.ErrClosed — no deadline
// polling).
type UDPNode struct {
	cfg   Config
	socks []*net.UDPConn

	mu      sync.Mutex // serialises access to the Conn state machine
	conn    *Conn
	remotes []*net.UDPAddr
	start   time.Time
	outq    []outPkt // staged under mu, written after unlock

	deliver func([]byte)
	done    chan struct{}
	wg      sync.WaitGroup

	batchSize *telemetry.Histogram // datagrams coalesced per socket batch
}

// outPkt is one staged outgoing datagram: marshaled bytes plus the frame
// reference (if any) that keeps them alive until the socket write returns.
type outPkt struct {
	path  int
	buf   []byte
	frame *netbuf.Frame
}

// NewUDPNode binds one UDP socket per local address ("host:port", port 0
// for ephemeral). deliver receives datagrams exactly once, in order; the
// payload aliases a pooled receive buffer and is only valid until deliver
// returns — retainers must copy.
func NewUDPNode(locals []string, cfg Config, deliver func([]byte)) (*UDPNode, error) {
	if len(locals) == 0 {
		return nil, fmt.Errorf("rudp: need at least one local address")
	}
	cfg.Paths = len(locals)
	n := &UDPNode{cfg: cfg.withDefaults(), deliver: deliver, done: make(chan struct{}), start: time.Now()}
	n.batchSize = n.cfg.registry().Root().Histogram(
		"rudp.udp.batch_datagrams", "datagrams per coalesced same-path socket batch (sendmmsg)")
	for _, addr := range locals {
		sock, _, err := bindUDP(addr)
		if err != nil {
			n.closeSocks()
			return nil, err
		}
		n.socks = append(n.socks, sock)
	}
	return n, nil
}

func (n *UDPNode) closeSocks() {
	for _, s := range n.socks {
		s.Close()
	}
}

// LocalAddrs returns the bound local addresses, in path order.
func (n *UDPNode) LocalAddrs() []string {
	out := make([]string, len(n.socks))
	for i, s := range n.socks {
		out[i] = s.LocalAddr().String()
	}
	return out
}

// now returns nanoseconds since the node started (a monotonic clock for the
// protocol engine).
func (n *UDPNode) now() int64 { return int64(time.Since(n.start)) }

// Connect supplies the peer's addresses (one per path, matching the local
// path order) and starts the protocol loops.
func (n *UDPNode) Connect(remotes []string) error {
	if len(remotes) != len(n.socks) {
		return fmt.Errorf("rudp: %d remote addrs for %d paths", len(remotes), len(n.socks))
	}
	for _, addr := range remotes {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("rudp: resolving %s: %w", addr, err)
		}
		n.remotes = append(n.remotes, ua)
	}
	conn, err := NewConn(n.cfg, n.transmit, n.deliver)
	if err != nil {
		return err
	}
	n.conn = conn
	for i := range n.socks {
		n.wg.Add(1)
		go n.readLoop(i)
	}
	n.wg.Add(1)
	go n.tickLoop()
	return nil
}

// transmit runs with n.mu held (all Conn entry points lock it). It only
// stages the datagram; the entry point flushes the batch after unlocking, so
// the kernel send path is never entered under the lock.
func (n *UDPNode) transmit(path int, w Wire) {
	p := outPkt{path: path}
	if w.Frame != nil {
		// The frame already carries the marshaled datagram (wire header
		// pushed by SendFrame). Hold a reference until the write completes:
		// an ack processed before the flush could otherwise recycle it.
		w.Frame.Retain()
		p.frame = w.Frame
		p.buf = w.Frame.Datagram()
	} else {
		// Control datagrams (acks, pings) marshal into a small pooled frame.
		f := netbuf.NewFrame(w.WireSize())
		w.marshalHeader(f.Payload())
		copy(f.Payload()[wireHeader:], w.Payload)
		p.frame = f
		p.buf = f.Payload()
	}
	n.outq = append(n.outq, p)
}

// takeBatch hands the staged datagrams to the caller; runs with n.mu held.
func (n *UDPNode) takeBatch() []outPkt {
	q := n.outq
	n.outq = nil
	return q
}

// writeBatch flushes staged datagrams outside the lock, coalescing runs of
// same-path packets into one batched socket call. Socket errors (e.g. peer
// gone) surface as silence, which the link monitor translates into Down —
// exactly the fault model the protocol expects.
func (n *UDPNode) writeBatch(q []outPkt) {
	for i := 0; i < len(q); {
		j := i + 1
		for j < len(q) && q[j].path == q[i].path {
			j++
		}
		bufs := make([][]byte, 0, j-i)
		for _, p := range q[i:j] {
			bufs = append(bufs, p.buf)
		}
		sendBatch(n.socks[q[i].path], n.remotes[q[i].path], bufs)
		n.batchSize.Observe(int64(j - i))
		i = j
	}
	for i := range q {
		if q[i].frame != nil {
			q[i].frame.Release()
		}
		q[i] = outPkt{}
	}
}

func (n *UDPNode) readLoop(path int) {
	defer n.wg.Done()
	for {
		f := netbuf.NewFrame(maxDatagram)
		sz, _, err := n.socks[path].ReadFromUDP(f.Payload())
		if err != nil {
			f.Release()
			if errors.Is(err, net.ErrClosed) {
				return // Close closed the socket: shut down
			}
			select {
			case <-n.done:
				return
			default:
			}
			continue // transient error: keep listening
		}
		w, err := UnmarshalWire(f.Payload()[:sz])
		if err != nil {
			f.Release()
			continue // garbage datagram: drop, as UDP would
		}
		w.Frame = f
		n.mu.Lock()
		n.conn.OnWire(path, w, n.now())
		q := n.takeBatch()
		n.mu.Unlock()
		n.writeBatch(q)
		f.Release()
	}
}

func (n *UDPNode) tickLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.PingInterval / 2)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
			n.mu.Lock()
			n.conn.Tick(n.now())
			q := n.takeBatch()
			n.mu.Unlock()
			n.writeBatch(q)
		}
	}
}

// Send queues one datagram for reliable delivery to the peer.
func (n *UDPNode) Send(payload []byte) {
	n.mu.Lock()
	n.conn.Send(payload, n.now())
	q := n.takeBatch()
	n.mu.Unlock()
	n.writeBatch(q)
}

// SendFrame queues a framed datagram for reliable delivery, consuming the
// caller's frame reference — the zero-copy Send.
func (n *UDPNode) SendFrame(f *netbuf.Frame) {
	n.mu.Lock()
	n.conn.SendFrame(f, n.now())
	q := n.takeBatch()
	n.mu.Unlock()
	n.writeBatch(q)
}

// PathStatus reports the link-state view of path i.
func (n *UDPNode) PathStatus(i int) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.conn.PathStatus(i).String()
}

// Stats returns a snapshot of the connection counters.
func (n *UDPNode) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.conn.Stats()
}

// Backlog reports unacknowledged datagrams.
func (n *UDPNode) Backlog() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.conn.Backlog()
}

// Close stops the loops and closes the sockets; the read loops wake with
// net.ErrClosed and exit.
func (n *UDPNode) Close() {
	close(n.done)
	n.closeSocks()
	n.wg.Wait()
}
