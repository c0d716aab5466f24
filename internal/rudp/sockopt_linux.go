//go:build linux

package rudp

import (
	"encoding/binary"
	"net"
	"syscall"
	"unsafe"
)

// rxqOOBSize fits the one control message reads ask for: SO_RXQ_OVFL's
// 32-bit drop count.
var rxqOOBSize = syscall.CmsgSpace(4)

// sizeSocketBuffers requests size-byte kernel receive and send buffers and
// returns the receive size the kernel granted, as it reports it (Linux
// doubles every request to cover its per-datagram bookkeeping and clamps it
// to net.core.rmem_max / wmem_max). A clamped grant is retried with
// SO_RCVBUFFORCE / SO_SNDBUFFORCE, which bypass the sysctl caps when the
// process holds CAP_NET_ADMIN — the same fallback quic-go uses. The
// setters' errors are not checked: the read-back grant is the outcome.
func sizeSocketBuffers(sock *net.UDPConn, size int) int {
	sock.SetReadBuffer(size)
	sock.SetWriteBuffer(size)
	rc, err := sock.SyscallConn()
	if err != nil {
		return 0
	}
	granted := 0
	rc.Control(func(fd uintptr) {
		s := int(fd)
		granted, _ = syscall.GetsockoptInt(s, syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		if granted < size {
			syscall.SetsockoptInt(s, syscall.SOL_SOCKET, syscall.SO_RCVBUFFORCE, size)
			syscall.SetsockoptInt(s, syscall.SOL_SOCKET, syscall.SO_SNDBUFFORCE, size)
			granted, _ = syscall.GetsockoptInt(s, syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		}
	})
	return granted
}

// enableDropCount asks the kernel to attach the socket's cumulative receive
// drop count (datagrams discarded because the receive buffer was full) to
// every read, as an SO_RXQ_OVFL control message.
func enableDropCount(sock *net.UDPConn) {
	if rc, err := sock.SyscallConn(); err == nil {
		rc.Control(func(fd uintptr) {
			syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
		})
	}
}

// rxqDrops extracts the SO_RXQ_OVFL drop count from a read's control
// messages without allocating. The kernel attaches it only once the socket
// has dropped something, so ok=false means "no drops yet".
func rxqDrops(oob []byte) (drops uint32, ok bool) {
	for len(oob) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		if int(h.Len) < syscall.SizeofCmsghdr || int(h.Len) > len(oob) {
			return 0, false
		}
		data := oob[syscall.SizeofCmsghdr:h.Len]
		if h.Level == syscall.SOL_SOCKET && h.Type == syscall.SO_RXQ_OVFL && len(data) >= 4 {
			return binary.NativeEndian.Uint32(data), true
		}
		next := syscall.CmsgSpace(int(h.Len) - syscall.SizeofCmsghdr)
		if next > len(oob) {
			return 0, false
		}
		oob = oob[next:]
	}
	return 0, false
}
