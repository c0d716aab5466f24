package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rain"
	"rain/internal/dstore"
	"rain/internal/telemetry"
)

const clusterSize = 6

// cluster is six rain.StartNode nodes in this process, each with the
// default NodeConfig (B-Code(6,4), two bundled loopback UDP paths,
// default scrub, self-heal and membership timing), a file-backed shard
// store and an HTTP gateway on a real loopback listener.
type cluster struct {
	dir   string
	nodes []*rain.Node
	srvs  []*http.Server
	urls  []string // gateway base URLs, by node index
	live  []int    // indices of running nodes
}

// reserveUDP picks free loopback UDP ports. All are held open until every
// one is chosen so none repeats, then released for the nodes to bind; the
// peer book must be complete before any node starts, because ephemeral
// ports cannot be learned by peers that have not yet spoken.
func reserveUDP(n int) ([]string, error) {
	socks := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, s := range socks {
			s.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		s, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("reserve udp port: %w", err)
		}
		socks = append(socks, s)
		addrs[i] = s.LocalAddr().String()
	}
	return addrs, nil
}

// startCluster starts the nodes under dir and returns once every node's
// membership view spans the code width and every gateway answers.
func startCluster(dir string, seed int64) (*cluster, error) {
	c := &cluster{dir: dir}
	names := make([]string, clusterSize)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	ports, err := reserveUDP(2 * clusterSize)
	if err != nil {
		return nil, err
	}
	book := make(map[string][]string, clusterSize)
	for i, n := range names {
		book[n] = ports[2*i : 2*i+2]
	}
	reg := telemetry.Default()
	for i, n := range names {
		dstore.RegisterMetrics(reg, n)
		sdir := filepath.Join(dir, n)
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			c.stop()
			return nil, err
		}
		node, err := rain.StartNode(rain.NodeConfig{
			Name:       n,
			Ring:       names,
			Locals:     book[n],
			Peers:      book,
			StorageDir: sdir,
			Seed:       seed*clusterSize + int64(i),
		})
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("start %s: %w", n, err)
		}
		c.nodes = append(c.nodes, node)
		c.live = append(c.live, i)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("gateway listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/o/", rain.NewGateway(node, rain.GatewayConfig{}))
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		c.srvs = append(c.srvs, srv)
		c.urls = append(c.urls, "http://"+ln.Addr().String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		if err := n.WaitReady(ctx); err != nil {
			c.stop()
			return nil, fmt.Errorf("cluster not ready: %w", err)
		}
	}
	if err := c.waitGateways(ctx); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// waitGateways polls every gateway until it answers a GET of an absent key
// with 404: the request crossed HTTP, the client and the daemons.
func (c *cluster) waitGateways(ctx context.Context) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	for _, u := range c.urls {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/o/absent", nil)
			if err != nil {
				return err
			}
			resp, err := hc.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("gateway %s not serving: %w", u, errors.Join(ctx.Err(), err))
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	return nil
}

// kill stops node i without a goodbye: its sockets close and its gateway
// stops answering.
func (c *cluster) kill(i int) {
	c.srvs[i].Close()
	c.nodes[i].Stop()
	for j, l := range c.live {
		if l == i {
			c.live = append(c.live[:j:j], c.live[j+1:]...)
			break
		}
	}
}

// waitViews polls every running node until its membership view holds
// exactly the running nodes, so a degraded window starts after the stopped
// node's removal rather than during its detection.
func (c *cluster) waitViews(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, i := range c.live {
		for len(c.nodes[i].View()) != len(c.live) {
			if time.Now().After(deadline) {
				return fmt.Errorf("n%d: view %v after %v, want %d members", i, c.nodes[i].View(), timeout, len(c.live))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// stop tears every node down and removes the shard files.
func (c *cluster) stop() {
	for _, s := range c.srvs {
		s.Close()
	}
	for _, i := range c.live {
		c.nodes[i].Stop()
	}
	c.live = nil
	os.RemoveAll(c.dir)
}
