package main

import (
	"bytes"
	"testing"

	"smartrpc/internal/transport"
	"smartrpc/internal/wire"
)

// fakeNode is the transport under a decorator: it keeps what was sent and
// hands out what the test queued.
type fakeNode struct {
	id    uint32
	sent  []wire.Message
	inbox []wire.Message
}

func (f *fakeNode) ID() uint32 { return f.id }

func (f *fakeNode) Send(m wire.Message) error {
	f.sent = append(f.sent, m)
	return nil
}

func (f *fakeNode) Recv() (wire.Message, error) {
	if len(f.inbox) == 0 {
		return wire.Message{}, transport.ErrClosed
	}
	m := f.inbox[0]
	f.inbox = f.inbox[1:]
	return m, nil
}

func (f *fakeNode) Close() error { return nil }

// decorated builds the benchmark's decorator stack over a fake node, with
// an op open on the recorder.
func decorated(id uint32) (*fakeNode, *timingNode, *counters, *recorder) {
	fake, c, rec := &fakeNode{id: id}, &counters{}, newRecorder()
	rec.beginOp(nowNs())
	return fake, &timingNode{Node: &countingNode{Node: fake, c: c}, rec: rec}, c, rec
}

// spansOf returns the op's spans of one kind, in the order they opened.
func spansOf(r *recorder, kind spanKind) []span {
	var out []span
	for _, s := range r.cur {
		if s.kind == kind {
			out = append(out, s)
		}
	}
	return out
}

func chunk(final bool) []byte {
	p := wire.FetchChunkPayload{XID: 9, Final: final}
	return p.Encode()
}

func TestExchangePairsByPeerAndSeq(t *testing.T) {
	fake, n, c, rec := decorated(1)
	// Two requests share a Seq but go to different peers.
	must(t, n.Send(wire.Message{Kind: wire.KindFetch, To: 2, Seq: 7}))
	must(t, n.Send(wire.Message{Kind: wire.KindValidate, To: 3, Seq: 7}))
	if got := c.msgs.Load(); got != 2 {
		t.Fatalf("counted %d messages, want 2", got)
	}
	// A reply with the right Seq from a peer nobody asked closes nothing.
	fake.inbox = append(fake.inbox, wire.Message{Kind: wire.KindFetchReply, From: 4, Seq: 7})
	recv(t, n)
	for _, s := range spansOf(rec, spExchange) {
		if s.dur >= 0 {
			t.Fatalf("a reply from an unasked peer closed the %v exchange", s.msg)
		}
	}
	// Peer 3 answers first: only the exchange with peer 3 closes.
	fake.inbox = append(fake.inbox, wire.Message{Kind: wire.KindValidateReply, From: 3, Seq: 7})
	recv(t, n)
	ex := spansOf(rec, spExchange)
	if len(ex) != 2 || ex[0].msg != wire.KindFetch || ex[1].msg != wire.KindValidate {
		t.Fatalf("exchange spans %+v, want a fetch then a validate", ex)
	}
	if ex[0].dur >= 0 || ex[1].dur < 0 {
		t.Fatalf("after peer 3 replied: fetch dur %d (want open), validate dur %d (want closed)", ex[0].dur, ex[1].dur)
	}
	fake.inbox = append(fake.inbox, wire.Message{Kind: wire.KindFetchReply, From: 2, Seq: 7})
	recv(t, n)
	if ex = spansOf(rec, spExchange); ex[0].dur < 0 {
		t.Fatal("the reply from peer 2 left its exchange open")
	}
}

func TestStreamedReplyClosesOnFinalChunk(t *testing.T) {
	// Requester side: the exchange stays open across non-final chunks.
	fake, n, _, rec := decorated(1)
	must(t, n.Send(wire.Message{Kind: wire.KindFetch, To: 2, Seq: 9}))
	fake.inbox = append(fake.inbox,
		wire.Message{Kind: wire.KindFetchChunk, From: 2, Seq: 9, Payload: chunk(false)},
		wire.Message{Kind: wire.KindFetchChunk, From: 2, Seq: 9, Payload: chunk(false)},
		wire.Message{Kind: wire.KindFetchChunk, From: 2, Seq: 9, Payload: chunk(true)})
	for i := 0; i < 2; i++ {
		recv(t, n)
		if ex := spansOf(rec, spExchange); len(ex) != 1 || ex[0].dur >= 0 {
			t.Fatalf("non-final chunk %d closed the exchange: %+v", i, ex)
		}
	}
	recv(t, n)
	if ex := spansOf(rec, spExchange); ex[0].dur < 0 {
		t.Fatal("the final chunk left the exchange open")
	}

	// Origin side: the serve span closes when the final chunk is sent.
	fake, n, _, rec = decorated(2)
	fake.inbox = append(fake.inbox, wire.Message{Kind: wire.KindFetch, From: 1, Seq: 9})
	recv(t, n)
	must(t, n.Send(wire.Message{Kind: wire.KindFetchChunk, To: 1, Seq: 9, Payload: chunk(false)}))
	if sv := spansOf(rec, spServe); len(sv) != 1 || sv[0].dur >= 0 {
		t.Fatalf("a non-final chunk closed the serve span: %+v", sv)
	}
	must(t, n.Send(wire.Message{Kind: wire.KindFetchChunk, To: 1, Seq: 9, Payload: chunk(true)}))
	if sv := spansOf(rec, spServe); sv[0].dur < 0 {
		t.Fatal("the final chunk left the serve span open")
	}
}

func TestDecoratorsLeaveFrameAlone(t *testing.T) {
	fake, n, _, _ := decorated(2)
	fb := wire.NewChunkBuf()
	p := wire.FetchChunkPayload{XID: 9, Final: true}
	p.EncodeTo(fb.Enc())
	body := append([]byte(nil), fb.Enc().Bytes()...)

	// Down: the inner node gets the very buffer the runtime attached.
	must(t, n.Send(wire.Message{Kind: wire.KindFetchChunk, To: 1, Seq: 9, Payload: fb.Enc().Bytes(), Frame: fb}))
	if got := fake.sent[0]; got.Frame != fb || !bytes.Equal(got.Payload, body) {
		t.Fatal("Send did not pass the pooled frame through untouched")
	}
	// Up: the runtime gets the very buffer the inner node attached.
	fake.inbox = append(fake.inbox, fake.sent[0])
	if got := recv(t, n); got.Frame != fb || !bytes.Equal(got.Payload, body) {
		t.Fatal("Recv did not pass the pooled frame through untouched")
	}
	// The buffer's one reference is still the test's: a decorator that had
	// released it would have put it back in the pool, and the pool would
	// hand it out again.
	for i := 0; i < 8; i++ {
		if other := wire.NewChunkBuf(); other == fb {
			t.Fatal("a decorator released the pooled frame")
		}
	}
	if !bytes.Equal(fb.Enc().Bytes(), body) {
		t.Fatal("the pooled frame's bytes changed under the decorators")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func recv(t *testing.T, n *timingNode) wire.Message {
	t.Helper()
	m, err := n.Recv()
	must(t, err)
	return m
}
