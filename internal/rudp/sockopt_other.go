//go:build !linux

package rudp

import "net"

// rxqOOBSize is zero: only Linux reports receive drops per read.
var rxqOOBSize = 0

// sizeSocketBuffers requests size-byte kernel receive and send buffers.
// Portable systems cannot report the grant, so the request is returned.
func sizeSocketBuffers(sock *net.UDPConn, size int) int {
	sock.SetReadBuffer(size)
	sock.SetWriteBuffer(size)
	return size
}

// enableDropCount is a no-op: SO_RXQ_OVFL is Linux-only.
func enableDropCount(*net.UDPConn) {}

// rxqDrops never finds a drop count off Linux.
func rxqDrops([]byte) (uint32, bool) { return 0, false }
