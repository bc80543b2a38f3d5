package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"smartrpc/internal/wire"
)

// These tests cover the TCP transport's failure edges: write errors
// mid-frame, truncated frames on the read side, and Close racing
// in-flight sends. The invariant throughout: a connection that has
// failed is torn down completely, and the node stays usable — the next
// Send redials on a clean stream.

// failAfterWriter accepts the first allow bytes, then fails every write.
// allow = 0 models an immediately dead socket; allow > 0 models a
// connection that dies mid-frame, leaving a partial frame behind.
type failAfterWriter struct {
	allow int
	wrote int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.wrote >= w.allow {
		return 0, errors.New("injected write failure")
	}
	n := w.allow - w.wrote
	if n > len(p) {
		n = len(p)
	}
	w.wrote += n
	return n, errors.New("injected write failure")
}

// breakWriteSide swaps node n's buffered writer to peer for one backed
// by w, simulating a socket whose write side has died without the node
// having noticed yet (the real conn stays in place so teardown has
// something to close).
func breakWriteSide(t *testing.T, n *TCPNode, peer uint32, w io.Writer) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.conns[peer]; !ok {
		t.Fatalf("no established connection to space %d", peer)
	}
	n.bufs[peer] = bufio.NewWriter(w)
}

func tcpPair(t *testing.T) (a, b *TCPNode) {
	t.Helper()
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err = ListenTCP(2, "127.0.0.1:0", map[uint32]string{1: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return a, b
}

// establish pushes one frame b→a so both sides hold a live connection.
func establish(t *testing.T, a, b *TCPNode) {
	t.Helper()
	if err := b.Send(wire.Message{Kind: wire.KindFetch, To: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPSendErrorRedialsOnce(t *testing.T) {
	a, b := tcpPair(t)
	establish(t, a, b)

	// The established connection's write side is dead, but the node has
	// not noticed. Send's first attempt fails mid-frame and tears the
	// connection down; its one transparent redial delivers the frame on a
	// fresh stream.
	breakWriteSide(t, b, 1, &failAfterWriter{})
	if err := b.Send(wire.Message{Kind: wire.KindCall, To: 1, Proc: "recovered"}); err != nil {
		t.Fatalf("Send over dead socket did not recover via redial: %v", err)
	}
	got, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Proc != "recovered" {
		t.Errorf("received %q, want the redialed frame", got.Proc)
	}
	// The redial registered a fresh connection.
	b.mu.Lock()
	_, hasConn := b.conns[1]
	_, hasBuf := b.bufs[1]
	b.mu.Unlock()
	if !hasConn || !hasBuf {
		t.Fatalf("redialed connection not registered (conn=%v buf=%v)", hasConn, hasBuf)
	}
}

func TestTCPSendFailsWhenRedialFails(t *testing.T) {
	a, b := tcpPair(t)
	establish(t, a, b)

	// Kill both the established stream and the peer's listener: the
	// retry's redial must fail too, and the error surfaces. The write side
	// breaks first: once a closes, b's read loop may unregister the
	// connection at any moment, and there would be nothing left to break.
	breakWriteSide(t, b, 1, &failAfterWriter{})
	_ = a.Close()
	err := b.Send(wire.Message{Kind: wire.KindCall, To: 1, Proc: "doomed"})
	if err == nil {
		t.Fatal("Send succeeded with the peer gone")
	}
	// The failed connection must be gone from both maps: a half-written
	// frame means the stream can never carry another intact frame.
	b.mu.Lock()
	_, hasConn := b.conns[1]
	_, hasBuf := b.bufs[1]
	b.mu.Unlock()
	if hasConn || hasBuf {
		t.Fatalf("failed connection still registered (conn=%v buf=%v)", hasConn, hasBuf)
	}
}

func TestTCPShortWriteMidFrameRecovers(t *testing.T) {
	a, b := tcpPair(t)
	establish(t, a, b)

	// Die 10 bytes into the frame — header written, body truncated. The
	// teardown-and-redial must deliver the frame intact, not resume the
	// torn stream.
	breakWriteSide(t, b, 1, &failAfterWriter{allow: 10})
	if err := b.Send(wire.Message{Kind: wire.KindCall, To: 1, Proc: "whole", Payload: make([]byte, 256)}); err != nil {
		t.Fatalf("Send did not recover from a mid-frame write failure: %v", err)
	}
	got, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Proc != "whole" || len(got.Payload) != 256 {
		t.Errorf("received %q (%d payload bytes), want the intact 256-byte frame", got.Proc, len(got.Payload))
	}
}

func TestTCPAcceptorLearnsDialerAddress(t *testing.T) {
	// a's book is empty: it can only reach space 2 through the listen
	// address the handshake announced. After the established connection
	// dies under a's first write attempt, a's transparent redial must use
	// the learned address — the teardown asymmetry this closes is that
	// only the original dialer could ever reconnect.
	a, b := tcpPair(t)
	establish(t, a, b)

	a.mu.Lock()
	learned, ok := a.book[2]
	a.mu.Unlock()
	if !ok || learned != b.Addr() {
		t.Fatalf("acceptor learned address %q (ok=%v), want %q from the handshake", learned, ok, b.Addr())
	}

	breakWriteSide(t, a, 2, &failAfterWriter{})
	if err := a.Send(wire.Message{Kind: wire.KindReturn, To: 2, Proc: "dialback"}); err != nil {
		t.Fatalf("acceptor-side Send after teardown: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Proc != "dialback" || got.From != 1 {
		t.Errorf("received %+v, want the acceptor's dialback frame", got)
	}
}

func TestTCPHandshakeNeverOverridesBook(t *testing.T) {
	// An explicit book entry wins over the handshake announcement: a peer
	// cannot redirect an already-configured route.
	a, err := ListenTCP(1, "127.0.0.1:0", map[uint32]string{2: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := ListenTCP(2, "127.0.0.1:0", map[uint32]string{1: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	if err := b.Send(wire.Message{Kind: wire.KindFetch, To: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	addr := a.book[2]
	a.mu.Unlock()
	if addr != "127.0.0.1:1" {
		t.Errorf("book entry for space 2 = %q, handshake overrode the configured %q", addr, "127.0.0.1:1")
	}
}

func TestWriteFrameFlushPropagatesShortWrite(t *testing.T) {
	// An io.Writer that reports n < len(p) with a nil error violates the
	// io contract; bufio surfaces it as io.ErrShortWrite, and the frame
	// writer must pass that through rather than report success.
	short := writerFunc(func(p []byte) (int, error) { return len(p) / 2, nil })
	bw := bufio.NewWriter(short)
	m := wire.Message{Kind: wire.KindCall, To: 1, Payload: make([]byte, 128)}
	if err := writeFrameFlush(bw, &m); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("writeFrameFlush = %v, want io.ErrShortWrite", err)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestTCPTruncatedInboundFrameIsolatedToItsConnection(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A raw peer handshakes, then sends half a frame and drops the
	// connection — the classic mid-frame network drop.
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var frames bytes.Buffer
	hello := wire.Message{Kind: wire.KindInvalidateAck, From: 9, To: 1}
	if err := wire.WriteFrame(&frames, &hello); err != nil {
		t.Fatal(err)
	}
	partial := wire.Message{Kind: wire.KindCall, From: 9, To: 1, Proc: "lost", Payload: make([]byte, 512)}
	var pbuf bytes.Buffer
	if err := wire.WriteFrame(&pbuf, &partial); err != nil {
		t.Fatal(err)
	}
	frames.Write(pbuf.Bytes()[:pbuf.Len()/2])
	if _, err := conn.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	// The truncated frame must never surface, and the node must remain
	// fully usable for a well-behaved peer afterwards.
	b, err := ListenTCP(2, "127.0.0.1:0", map[uint32]string{1: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Send(wire.Message{Kind: wire.KindCall, To: 1, Proc: "intact"}); err != nil {
		t.Fatal(err)
	}
	got, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Proc != "intact" || got.From != 2 {
		t.Fatalf("received %+v, want the intact frame from space 2", got)
	}
	// Nothing else (in particular no fragment of the truncated frame)
	// may be sitting in the inbox.
	select {
	case m := <-a.inbox:
		t.Fatalf("unexpected extra message %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestTCPConcurrentCloseVsInFlightSend(t *testing.T) {
	a, b := tcpPair(t)
	establish(t, a, b)

	// Drain a so b's sends never stall on a full inbox.
	go func() {
		for {
			if _, err := a.Recv(); err != nil {
				return
			}
		}
	}()

	const senders = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; ; j++ {
				err := b.Send(wire.Message{Kind: wire.KindCall, To: 1, Seq: uint64(j)})
				if err != nil {
					// Once Close has won the race every send must keep
					// failing — the node never resurrects itself.
					if err2 := b.Send(wire.Message{Kind: wire.KindCall, To: 1}); err2 == nil {
						t.Error("Send succeeded after a post-close failure")
					}
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatalf("Close with sends in flight: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("senders did not observe the close within 5s")
	}
	if err := b.Send(wire.Message{Kind: wire.KindCall, To: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}
