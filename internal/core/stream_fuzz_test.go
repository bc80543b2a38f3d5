package core

import (
	"errors"
	"testing"

	"smartrpc/internal/wire"
)

// FuzzChunkReassembly drives the exchange engine's receive half — the
// dispatcher's delivery, the frame queue, the per-frame classifier — with
// an arbitrary interleaving of reply frames for one sequence number:
// chunks in order, FINAL chunks, duplicated and skipped ordinals, a wrong
// exchange id, a chunk with a retired flag bit, the monolithic reply,
// error frames in both forms, and frames the checksum rejected. Against
// a model written out here it checks that the attempt ends in exactly
// the expected one of {complete, transient, terminal}, that the consumer
// is handed exactly the in-contract prefix and nothing after a final
// frame, and that neither a registration nor a queued frame is left
// behind. The client installs chunks as they arrive, so this gate is all
// that stands between a reordering transport and a torn closure.
func FuzzChunkReassembly(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 0, 1})       // intact stream
	f.Add(uint64(7), []byte{0, 0, 3, 0, 1})       // a dropped chunk
	f.Add(uint64(9), []byte{0, 2, 1})             // a duplicated chunk
	f.Add(uint64(3), []byte{0, 3, 2, 0, 1})       // adjacent chunks swapped
	f.Add(uint64(0xdeadbeef), []byte{0, 4, 0, 1}) // wrong exchange id
	f.Add(uint64(2), []byte{0, 0, 1, 1})          // a chunk after the final one
	f.Add(uint64(4), []byte{5})                   // the classic single frame
	f.Add(uint64(5), []byte{0, 5})                // a monolithic reply inside a stream
	f.Add(uint64(6), []byte{0, 7, 1})             // corrupted in flight mid-stream
	f.Add(uint64(8), []byte{0, 6 | 8})            // the origin's serve failed mid-stream
	f.Add(uint64(10), []byte{6})                  // an error reply
	f.Add(uint64(11), []byte{4 | 8, 1})           // a chunk with the retired validate flag
	f.Add(uint64(12), []byte{0, 0})               // a stream that never ends
	f.Fuzz(func(t *testing.T, xid uint64, script []byte) {
		if len(script) > 64 {
			return
		}
		seq := xid & wire.SeqXIDMask
		rt := &Runtime{pending: newPendingTable(), stop: make(chan struct{})}
		close(rt.stop) // the consumer takes what is queued, then ErrClosed
		x := &exchange{rt: rt, peer: 1, kind: wire.KindFetch, wake: make(chan struct{}, 1)}
		x.seq, x.asm = seq, chunkAssembler{xid: seq}
		rt.pending.register(x)

		// The model. want is the outcome, handed the number of frames the
		// consumer must see; both are settled by the first frame that ends
		// the attempt, and frames after a final one never reach the queue.
		const (
			incomplete = iota // every frame in contract, no final one: terminal (here, ErrClosed)
			complete
			transient
			terminal
		)
		want, handed, settled, registered := incomplete, 0, false, true
		ord := uint32(0) // the stream position a well-formed next chunk would carry
		chunk := func(p wire.FetchChunkPayload) wire.Message {
			return wire.Message{Kind: wire.KindFetchChunk, Seq: seq, Payload: p.Encode()}
		}
		for _, b := range script {
			var m wire.Message
			outcome, hands := -1, false // of this frame, were it the first to matter
			switch b & 7 {
			case 0, 1: // the next chunk, FINAL or not
				m = chunk(wire.FetchChunkPayload{XID: seq, Chunk: ord, Final: b&7 == 1})
				hands = true
				if b&7 == 1 {
					outcome = complete
				}
			case 2: // a duplicate of the previous ordinal (of nothing: ordinal 7)
				dup := ord - 1
				if ord == 0 {
					dup = 7
				}
				m, outcome = chunk(wire.FetchChunkPayload{XID: seq, Chunk: dup}), transient
			case 3: // the chunk after a dropped one
				m, outcome = chunk(wire.FetchChunkPayload{XID: seq, Chunk: ord + 1}), transient
			case 4: // the right ordinal with a flag bit no stream carries, or in the wrong stream
				if b&8 != 0 {
					m, outcome = chunk(wire.FetchChunkPayload{XID: seq, Chunk: ord}), terminal
					m.Payload[15] |= 2 // flag bit 1: the retired validate form
				} else {
					m, outcome = chunk(wire.FetchChunkPayload{XID: seq + 1, Chunk: ord}), transient
				}
			case 5: // the monolithic reply: the whole of a one-frame stream, or an intruder
				m = wire.Message{Kind: wire.KindFetchReply, Seq: seq, Payload: []byte{}}
				outcome, hands = complete, true
				if ord > 0 {
					outcome, hands = terminal, false
				}
			case 6: // an application error, as a reply or as an error chunk
				m = wire.Message{Kind: wire.KindFetchReply, Seq: seq, Err: "boom", Payload: []byte{}}
				outcome, hands = complete, true
				if b&8 != 0 {
					m.Kind = wire.KindFetchChunk
				} else if ord > 0 {
					outcome, hands = terminal, false
				}
			case 7: // what the dispatcher makes of a frame that failed its checksum
				m = wire.Message{Kind: wire.KindFetchChunk, Seq: seq, Err: checksumRejectErr}
				outcome = transient
			}
			final := m.Kind != wire.KindFetchChunk || m.Err != "" || wire.ChunkIsFinal(m.Payload)
			if got := rt.pending.deliver(m, final); got != registered {
				t.Fatalf("frame %#x: delivered = %v with the exchange registered = %v", b, got, registered)
			}
			if !registered {
				continue
			}
			registered = !final
			if !settled {
				if hands {
					handed++
					if b&7 <= 1 {
						ord++
					}
				}
				if outcome >= 0 {
					want, settled = outcome, true
				}
			}
		}

		got, sawFinal := 0, false
		_, isTransient, err := x.frames(func(m wire.Message) (bool, error) {
			if sawFinal {
				t.Fatalf("a frame was handed over after the final one")
			}
			sawFinal = m.Kind != wire.KindFetchChunk || m.Err != "" || wire.ChunkIsFinal(m.Payload)
			got++
			return false, nil
		})
		outcome := complete
		switch {
		case isTransient:
			outcome = transient
		case errors.Is(err, ErrClosed):
			outcome = incomplete
		case err != nil:
			outcome = terminal
		}
		if outcome != want || got != handed {
			t.Fatalf("script %v: outcome %d after %d frames (%v); want outcome %d after %d", script, outcome, got, err, want, handed)
		}
		if (outcome == complete) != sawFinal {
			t.Fatalf("script %v: complete = %v but a final frame was handed over = %v", script, outcome == complete, sawFinal)
		}
		if len(rt.pending.m) != 0 || x.live || len(x.q) != 0 {
			t.Fatalf("script %v: left behind %d registrations (live = %v) and %d queued frames", script, len(rt.pending.m), x.live, len(x.q))
		}
		if abandoned := outcome != complete; x.abandoned != abandoned {
			t.Fatalf("script %v: outcome %d left the exchange poolable = %v", script, outcome, !x.abandoned)
		}
	})
}
