package core

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"smartrpc/internal/wire"
)

// Installs happen on the thread of control: background receivers park
// reply frames and the thread of control installs them at its next fault
// or control transfer (fetch.go, InstallParked). The tests below force
// each race shape the old background installs had, deterministically:
// the frames are parked by hand, exactly as a receiver parks them, so no
// timing decides the interleaving.

// parkReply registers an exchange for page pn from origin and parks a
// one-frame reply carrying items, then the exchange's end record, as a
// background receiver does.
func parkReply(t *testing.T, rt *Runtime, pn, origin uint32, items []wire.DataItem) *wire.FrameBuf {
	t.Helper()
	// The end record releases the exchange's request frame.
	f := &inflightFetch{fetchKey: fetchKey{pn: pn, origin: origin}, sess: rt.Session(), frame: wire.NewChunkBuf()}
	rt.inflightMu.Lock()
	rt.inflight[f.fetchKey] = f
	rt.inflightMu.Unlock()
	fb := wire.NewChunkBuf()
	(&wire.ItemsPayload{Items: items}).EncodeTo(fb.Enc())
	rt.park(parkedFrame{f: f, m: wire.Message{Kind: wire.KindFetchReply, Payload: fb.Enc().Bytes(), Frame: fb}})
	rt.park(parkedFrame{f: f, end: true})
	if n := rt.ParkedFrames(); n != 2 {
		t.Fatalf("%d records parked, want the frame and its end", n)
	}
	return fb
}

// originBody encodes v's datum as its origin serves it.
func originBody(t *testing.T, origin *Runtime, v Value) []byte {
	t.Helper()
	rv, err := origin.res.Resolve(v.LP.Type)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeObject(origin.space, origin.table, rv, v.LP.Addr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// singleNode builds a one-node tree at origin holding data.
func singleNode(t *testing.T, origin *Runtime, data int64) Value {
	t.Helper()
	v := buildTree(t, origin, 1)
	ref, err := origin.Deref(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetInt("data", 0, data); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestParkedRideAlongKeepsWrite is the shape of DESIGN §7 bugs 8 and 14
// under parked frames: a frame carrying datum X, encoded before the
// thread of control wrote X, is parked; the thread writes X and then
// faults, which installs the frame. The write survives: a fetch-path copy
// never lands on a datum the session touched. In "other-page" the fault
// is on the page the frame was fetched for and X rides along; in
// "write-fault" the fault is X's own, the first write to its clean page,
// taken after the row is marked and before the bytes land.
func TestParkedRideAlongKeepsWrite(t *testing.T) {
	for _, sameFault := range []bool{false, true} {
		name := map[bool]string{false: "other-page", true: "write-fault"}[sameFault]
		t.Run(name, func(t *testing.T) {
			origin, cl := pair(t, nil)
			x, y := singleNode(t, origin, 5), singleNode(t, origin, 7)
			if err := cl.BeginSession(); err != nil {
				t.Fatal(err)
			}
			vx, err := cl.ImportPtr(x.LP)
			if err != nil {
				t.Fatal(err)
			}
			rx, err := cl.Deref(vx)
			if err != nil {
				t.Fatal(err)
			}
			if d, err := rx.Int("data", 0); err != nil || d != 5 {
				t.Fatalf("x = %d, %v; want 5", d, err)
			}
			before := originBody(t, origin, x)
			if sameFault {
				parkReply(t, cl, cl.space.PageOf(vx.Addr), 1, []wire.DataItem{{LP: x.LP, Bytes: before}})
				if err := rx.SetInt("data", 0, 42); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := rx.SetInt("data", 0, 42); err != nil {
					t.Fatal(err)
				}
				vy, err := cl.ImportPtr(y.LP)
				if err != nil {
					t.Fatal(err)
				}
				pn := cl.space.PageOf(vy.Addr)
				if pn == cl.space.PageOf(vx.Addr) {
					t.Fatal("x and y share a cache page; the test needs them apart")
				}
				parkReply(t, cl, pn, 1, []wire.DataItem{
					{LP: y.LP, Bytes: originBody(t, origin, y)},
					{LP: x.LP, Bytes: before},
				})
				ry, err := cl.Deref(vy)
				if err != nil {
					t.Fatal(err)
				}
				if d, err := ry.Int("data", 0); err != nil || d != 7 {
					t.Fatalf("y = %d, %v; want 7 from the parked frame", d, err)
				}
			}
			if d, err := rx.Int("data", 0); err != nil || d != 42 {
				t.Fatalf("x = %d, %v after the parked frame installed; want the write, 42", d, err)
			}
			if n := cl.Stats().FetchesSent; n != 1 {
				t.Errorf("%d FETCHes sent; the parked frame should have answered the fault", n)
			}
			if n, m := cl.ParkedFrames(), cl.InflightFetches(); n != 0 || m != 0 {
				t.Errorf("%d frames parked, %d exchanges registered after the fault; want 0, 0", n, m)
			}
			if err := cl.EndSession(); err != nil {
				t.Fatal(err)
			}
			ref, err := origin.Deref(x)
			if err != nil {
				t.Fatal(err)
			}
			if d, err := ref.Int("data", 0); err != nil || d != 42 {
				t.Errorf("origin x = %d, %v after write-back; want 42", d, err)
			}
		})
	}
}

// TestInvariantsHoldWithFramesParked is the shape of DESIGN §7 bug 13:
// the invariant checker runs while frames are parked, without installMu,
// both directly and before a CALL (CheckInvariants), and passes. A parked
// frame is invisible to the cache until the thread of control installs
// it, which the CALL does before it builds the modified set.
func TestInvariantsHoldWithFramesParked(t *testing.T) {
	origin, cl := pair(t, func(_ uint32, o *Options) { o.CheckInvariants = true })
	registerSumProc(t, origin)
	x, y := singleNode(t, origin, 5), singleNode(t, origin, 7)
	if err := cl.BeginSession(); err != nil {
		t.Fatal(err)
	}
	vx, err := cl.ImportPtr(x.LP)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := cl.Deref(vx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Int("data", 0); err != nil {
		t.Fatal(err)
	}
	vy, err := cl.ImportPtr(y.LP)
	if err != nil {
		t.Fatal(err)
	}
	fb := parkReply(t, cl, cl.space.PageOf(vy.Addr), 1, []wire.DataItem{{LP: y.LP, Bytes: originBody(t, origin, y)}})
	if err := cl.CheckLocalInvariants(); err != nil {
		t.Fatalf("invariants with a frame parked: %v", err)
	}
	res, err := cl.Call(1, "sumTree", []Value{vx})
	if err != nil {
		t.Fatalf("call with a frame parked: %v", err)
	}
	if got := res[0].Int64(); got != 5 {
		t.Errorf("sumTree = %d, want 5", got)
	}
	if n := cl.ParkedFrames(); n != 0 {
		t.Errorf("%d frames still parked after the CALL", n)
	}
	if n := fb.Refs(); n != 0 {
		t.Errorf("the installed frame holds %d references to its pooled buffer", n)
	}
	if e, ok := cl.table.LookupAddr(vy.Addr); !ok || !e.Resident {
		t.Error("the parked datum is not resident after the CALL")
	}
	if err := cl.EndSession(); err != nil {
		t.Fatal(err)
	}
}

// goid returns the calling goroutine's id.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// threadTracer counts installs traced on any goroutine but one.
type threadTracer struct {
	self uint64
	off  atomic.Int64
	n    atomic.Int64
}

func (tr *threadTracer) Trace(e Event) {
	if e.Kind == EvInstall || e.Kind == EvChunkInstall {
		tr.n.Add(1)
		if goid() != tr.self {
			tr.off.Add(1)
		}
	}
}

// TestInstallsStayOnThreadOfControl: with speculation on and every reply
// streamed in 128-byte chunks, every install batch runs on the goroutine
// that chases the chain, never on a prefetch exchange's or a stream
// drain's receiver.
func TestInstallsStayOnThreadOfControl(t *testing.T) {
	net, server, clients := streamNet(t, 1,
		func(o *Options) { o.StreamChunkBytes = 128 },
		func(o *Options) {
			o.Prefetch = true
			o.ClosureSize = 1024
		})
	cl := clients[0]
	root, want := buildChain(t, server, 256, 0)
	tr := &threadTracer{self: goid()}
	cl.SetTracer(tr)
	got, err := chase(cl, root)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chase sum = %d, want %d", got, want)
	}
	if n := tr.off.Load(); n != 0 {
		t.Errorf("%d of %d installs ran off the thread of control", n, tr.n.Load())
	}
	if n := net.Stats().KindMessages(uint32(wire.KindFetchChunk)); n == 0 {
		t.Error("no chunk frames on the wire: streaming never engaged")
	}
	if cl.Stats().PfIssued == 0 {
		t.Error("no speculative FETCH issued: the prefetcher never ran")
	}
}
