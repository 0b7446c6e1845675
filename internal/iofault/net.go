// Network fault injection: the wire-side sibling of File. A NetConn
// wraps a net.Conn and models the hostile peers a server must survive —
// slow writers that trickle bytes (slowloris), connections severed in
// the middle of a frame, peers that silently stop sending, and stalls
// that never complete a write. Like File, faults are armed by a byte
// budget so tests cut the connection at an exact, reproducible offset.
package iofault

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// NetMode selects what happens to writes once the byte budget is spent.
type NetMode int

const (
	// NetSever writes the part of the crossing write that fits the
	// budget, then closes the connection (a peer dying mid-frame: the
	// receiver sees a clean prefix then EOF/reset).
	NetSever NetMode = iota
	// NetStall writes up to the budget, then blocks the crossing write
	// until the connection is closed (a peer that goes silent holding
	// the socket open — the slowloris shape).
	NetStall
	// NetTruncate writes up to the budget and silently drops everything
	// past it while reporting success (a broken middlebox: the sender
	// believes the frame left, the receiver waits for bytes that never
	// come).
	NetTruncate
)

// NetConn wraps a net.Conn with fault injection. Configure before use;
// the setters are safe for concurrent use with Read/Write.
type NetConn struct {
	net.Conn

	mu         sync.Mutex
	readDelay  time.Duration
	writeDelay time.Duration
	budget     int64 // bytes accepted before the write fault; <0 = unlimited
	written    int64
	mode       NetMode
	closed     bool
	release    chan struct{} // closed by Close: frees a stalled write
}

// WrapConn returns a NetConn passing everything through (no faults
// until configured).
func WrapConn(c net.Conn) *NetConn {
	return &NetConn{Conn: c, budget: -1, release: make(chan struct{})}
}

// SetReadDelay makes every Read sleep d first (a slow or congested
// receive path).
func (c *NetConn) SetReadDelay(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDelay = d
}

// SetWriteDelay makes every Write sleep d first, so a multi-write frame
// trickles onto the wire (the slowloris sender).
func (c *NetConn) SetWriteDelay(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeDelay = d
}

// SetWriteBudget arms the write fault: after n more accepted bytes,
// writes fault per mode. A negative n disarms.
func (c *NetConn) SetWriteBudget(n int64, mode NetMode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= 0 {
		c.budget = c.written + n
	} else {
		c.budget = -1
	}
	c.mode = mode
}

// Read delegates to the wrapped connection after the read delay.
func (c *NetConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	d := c.readDelay
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Read(p)
}

// Write implements the configured fault behavior.
func (c *NetConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if d := c.writeDelay; d > 0 {
		c.mu.Unlock()
		time.Sleep(d)
		c.mu.Lock()
	}
	if c.budget < 0 || c.written+int64(len(p)) <= c.budget {
		c.written += int64(len(p))
		c.mu.Unlock()
		return c.Conn.Write(p)
	}
	room := c.budget - c.written
	if room < 0 {
		room = 0
	}
	mode := c.mode
	c.written += room
	release := c.release
	c.mu.Unlock()

	n, err := c.Conn.Write(p[:room])
	if err != nil {
		return n, err
	}
	switch mode {
	case NetSever:
		_ = c.Close()
		return n, fmt.Errorf("%w: connection severed mid-write (%d of %d bytes)", ErrInjected, n, len(p))
	case NetStall:
		<-release // parked until Close
		return n, fmt.Errorf("%w: stalled write released by close", ErrInjected)
	default: // NetTruncate
		return len(p), nil // the lie: the dropped tail "was sent"
	}
}

// Close closes the wrapped connection and releases any stalled write.
func (c *NetConn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.release)
	}
	c.mu.Unlock()
	return c.Conn.Close()
}
