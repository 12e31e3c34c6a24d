package nic

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/ring"
	"github.com/minoskv/minos/internal/wire"
)

// UDPServer binds one UDP socket per RX queue on consecutive ports
// starting at basePort. The destination port selects the queue — the
// kernel demultiplexes by port exactly as the paper's NIC steers by RSS
// hash of the port (§5.1). Each queue's socket doubles as that core's TX
// path, preserving per-core TX ordering.
//
// Recv never blocks; a core that parks is woken through the rxWaker.
type UDPServer struct {
	conns []*net.UDPConn
	// raws are the per-queue non-blocking drain readers (nil off Linux);
	// see rawUDP for why deadline probes are not enough.
	raws  []*rawUDP
	waker *rxWaker
	// ids interns client addresses to stable Endpoints so the server's
	// reassemblers and accounting can key on uint64 and so the boxed
	// Addr (an interface holding netip.AddrPort) is allocated once per
	// client instead of once per packet; guarded by mu because every
	// core's RX path interns addresses.
	mu  sync.Mutex
	ids map[netip.AddrPort]Endpoint
}

// NewUDPServer binds queues sockets on host starting at basePort.
func NewUDPServer(host string, basePort, queues int) (*UDPServer, error) {
	s := &UDPServer{ids: make(map[netip.AddrPort]Endpoint)}
	for q := 0; q < queues; q++ {
		addr := &net.UDPAddr{IP: net.ParseIP(host), Port: basePort + q}
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			for _, c := range s.conns {
				c.Close()
			}
			return nil, fmt.Errorf("nic: binding queue %d on %v: %w", q, addr, err)
		}
		s.conns = append(s.conns, conn)
		s.raws = append(s.raws, newRawUDP(conn))
	}
	s.waker = newRxWaker(s.raws)
	return s, nil
}

// Queues returns the RX queue count.
func (s *UDPServer) Queues() int { return len(s.conns) }

// SetRxBell steers queue q's arrivals to bell.
func (s *UDPServer) SetRxBell(q int, bell *ring.Doorbell) { s.waker.steer(q, bell) }

// Recv drains up to len(out) datagrams from queue q without blocking.
// Each datagram is read directly into a leased buffer whose ownership
// passes to the caller with the frame; a miss hands the unused lease
// straight back.
func (s *UDPServer) Recv(q int, out []Frame) int {
	got := 0
	for got < len(out) {
		buf := mem.Lease(wire.MTU)
		n, addr, ok := tryRecv(s.raws[q], s.conns[q], buf.Data)
		if !ok {
			buf.Release()
			break
		}
		out[got] = Frame{Src: s.endpointFor(addr), Data: buf.Data[:n], buf: buf}
		got++
	}
	if got == 0 {
		s.waker.emptyPoll(q)
	}
	return got
}

// tryRecv is one non-blocking read of a socket: the raw path on Linux, and
// elsewhere a read against a deadline already past, which costs a
// *net.OpError per miss.
func tryRecv(raw *rawUDP, conn *net.UDPConn, buf []byte) (int, netip.AddrPort, bool) {
	if raw != nil {
		return raw.tryRecv(buf)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Nanosecond))
	n, addr, err := conn.ReadFromUDPAddrPort(buf)
	return n, addr, err == nil
}

func (s *UDPServer) endpointFor(addr netip.AddrPort) Endpoint {
	s.mu.Lock()
	ep, ok := s.ids[addr]
	if !ok {
		ep = Endpoint{ID: uint64(len(s.ids) + 1), Addr: addr}
		s.ids[addr] = ep
	}
	s.mu.Unlock()
	return ep
}

// Send transmits one reply frame from queue q's socket, releasing the
// buffer once the datagram is handed to the kernel.
func (s *UDPServer) Send(q int, dst Endpoint, frame *mem.Buf) error {
	addr, ok := dst.Addr.(netip.AddrPort)
	if !ok {
		frame.Release()
		return fmt.Errorf("nic: endpoint %d has no UDP address", dst.ID)
	}
	_, err := s.conns[q].WriteToUDPAddrPort(frame.Data, addr)
	frame.Release()
	return err
}

// SendBatch transmits frames to dst from queue q's socket with one address
// resolution for the whole batch. (A sendmmsg fast path would slot in here;
// the standard library exposes only per-datagram writes.)
func (s *UDPServer) SendBatch(q int, dst Endpoint, frames []*mem.Buf) error {
	addr, ok := dst.Addr.(netip.AddrPort)
	if !ok {
		releaseAll(frames)
		return fmt.Errorf("nic: endpoint %d has no UDP address", dst.ID)
	}
	conn := s.conns[q]
	for i, frame := range frames {
		if _, err := conn.WriteToUDPAddrPort(frame.Data, addr); err != nil {
			releaseAll(frames[i:])
			return err
		}
		frame.Release()
	}
	return nil
}

// Close closes every socket and waits for the watchers to exit.
func (s *UDPServer) Close() error {
	var first error
	for _, c := range s.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.waker.close()
	return first
}

// UDPClient is one client thread's socket.
type UDPClient struct {
	conn     *net.UDPConn
	raw      *rawUDP // non-blocking drain reader (nil off Linux)
	host     netip.Addr
	basePort int
	idle     ring.Idle // the single receiver's: how long it has polled for nothing
}

// NewUDPClient dials toward a UDPServer at host:basePort.
func NewUDPClient(host string, basePort int) (*UDPClient, error) {
	hostAddr, err := netip.ParseAddr(host)
	if err != nil {
		return nil, fmt.Errorf("nic: client host %q: %w", host, err)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4zero, Port: 0})
	if err != nil {
		return nil, fmt.Errorf("nic: client socket: %w", err)
	}
	return &UDPClient{conn: conn, raw: newRawUDP(conn), host: hostAddr, basePort: basePort}, nil
}

// Endpoint returns the client's local address identity.
func (c *UDPClient) Endpoint() Endpoint {
	addr := c.conn.LocalAddr().(*net.UDPAddr)
	return Endpoint{ID: uint64(addr.Port), Addr: addr.AddrPort()}
}

// queueAddr builds the destination for server queue q. netip.AddrPort is a
// value type, so this allocates nothing.
func (c *UDPClient) queueAddr(q int) netip.AddrPort {
	return netip.AddrPortFrom(c.host, uint16(c.basePort+q))
}

// Send transmits one frame to server queue q (port basePort+q), releasing
// the buffer once the datagram is handed to the kernel.
func (c *UDPClient) Send(q int, frame *mem.Buf) error {
	_, err := c.conn.WriteToUDPAddrPort(frame.Data, c.queueAddr(q))
	frame.Release()
	return err
}

// SendBatch transmits frames to server queue q, building the destination
// address once for the whole batch.
func (c *UDPClient) SendBatch(q int, frames []*mem.Buf) error {
	addr := c.queueAddr(q)
	for i, frame := range frames {
		if _, err := c.conn.WriteToUDPAddrPort(frame.Data, addr); err != nil {
			releaseAll(frames[i:])
			return err
		}
		frame.Release()
	}
	return nil
}

// Recv waits up to timeout for one reply datagram.
func (c *UDPClient) Recv(buf []byte, timeout time.Duration) (int, bool) {
	one := [1][]byte{buf}
	if c.RecvBatch(one[:], timeout) == 0 {
		return 0, false
	}
	return len(one[0]), true
}

// RecvBatch waits up to timeout for the first datagram, then drains the
// immediately available ones. The wait is the datapath's one discipline:
// non-blocking reads, yielding in between, until ring.SpinBound has passed
// since a datagram last arrived, and only then one blocking netpoller read
// against the caller's deadline — the kernel is the producer here, and the
// netpoller is its doorbell.
func (c *UDPClient) RecvBatch(out [][]byte, timeout time.Duration) int {
	if len(out) == 0 {
		return 0
	}
	deadline := time.Now().Add(timeout)
	for c.raw != nil {
		if got := c.drain(out); got > 0 {
			c.idle.Reset()
			return got
		}
		if !time.Now().Before(deadline) {
			return 0
		}
		if !c.idle.Spin() {
			break
		}
	}
	_ = c.conn.SetReadDeadline(deadline)
	n, _, err := c.conn.ReadFromUDPAddrPort(out[0][:cap(out[0])])
	if err != nil {
		return 0
	}
	c.idle.Reset()
	out[0] = out[0][:n]
	return 1 + c.drain(out[1:])
}

// drain fills out with the datagrams that are already there.
func (c *UDPClient) drain(out [][]byte) int {
	for got := range out {
		buf := out[got][:cap(out[got])]
		n, _, ok := tryRecv(c.raw, c.conn, buf)
		if !ok {
			return got
		}
		out[got] = buf[:n]
	}
	return len(out)
}

// Close closes the socket.
func (c *UDPClient) Close() error { return c.conn.Close() }
