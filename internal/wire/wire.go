// Package wire defines the messages the Smart RPC runtimes exchange and
// their canonical (XDR) encoding, plus length-prefixed framing for stream
// transports.
//
// The message set follows the protocol in §3 of the paper:
//
//   - Call / Return carry RPC arguments and results; both piggyback the
//     modified data set (coherency protocol, §3.4) and flush the batched
//     remote-allocation requests (§3.5) travel just before them.
//   - Fetch / FetchReply move remotely referenced data on the first page
//     fault (§3.2), with the eager transitive closure attached (§3.3). A
//     fault on a page kept warm across sessions sends a hashed Fetch: each
//     want carries the hash of the client's demoted copy, and the origin
//     answers it with a zero-byte ItemCurrent token or the full body.
//   - WriteBack and Invalidate implement the end-of-session tasks of the
//     ground runtime (§3.4).
//   - AllocBatch / AllocReply carry the batched extended_malloc and
//     extended_free requests (§3.5).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"smartrpc/internal/xdr"
)

// Kind discriminates message types.
type Kind uint32

// Message kinds.
const (
	KindCall Kind = iota + 1
	KindReturn
	KindFetch
	KindFetchReply
	KindWriteBack
	KindWriteBackAck
	KindInvalidate
	KindInvalidateAck
	KindAllocBatch
	KindAllocReply
	// KindValidate and KindValidateReply are retired (a hashed Fetch asks
	// what they asked). Their numbers stay reserved and named.
	KindValidate
	KindValidateReply
	// KindFetchChunk is one bounded chunk of a streamed Fetch reply: the
	// origin emits a sequence of chunk frames sharing the
	// request's Seq instead of one monolithic reply frame, so the client
	// can decode and install the closure while later chunks are still in
	// flight. Each chunk is individually checksummed.
	KindFetchChunk
)

// kinds is the name table: every kind number ever assigned, whether it is
// a reply (routed to a waiting requester rather than dispatched to a
// handler), and whether it is retired (named, but never valid again).
var kinds = [...]struct {
	name           string
	reply, retired bool
}{
	KindCall: {name: "call"}, KindReturn: {name: "return", reply: true},
	KindFetch: {name: "fetch"}, KindFetchReply: {name: "fetch-reply", reply: true},
	KindWriteBack: {name: "write-back"}, KindWriteBackAck: {name: "write-back-ack", reply: true},
	KindInvalidate: {name: "invalidate"}, KindInvalidateAck: {name: "invalidate-ack", reply: true},
	KindAllocBatch: {name: "alloc-batch"}, KindAllocReply: {name: "alloc-reply", reply: true},
	KindValidate: {name: "validate", retired: true}, KindValidateReply: {name: "validate-reply", reply: true, retired: true},
	KindFetchChunk: {name: "fetch-chunk", reply: true},
}

// String names the kind.
func (k Kind) String() string {
	if k < Kind(len(kinds)) && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint32(k))
}

// Valid reports whether k is a defined kind still in use.
func (k Kind) Valid() bool {
	return k < Kind(len(kinds)) && kinds[k].name != "" && !kinds[k].retired
}

// IsReply reports whether k is a response kind (routed to a waiting
// requester rather than dispatched to a handler).
func (k Kind) IsReply() bool {
	return k < Kind(len(kinds)) && kinds[k].reply
}

// ReplyKind returns the response kind paired with a request kind (zero
// for reply kinds and unknown kinds).
func (k Kind) ReplyKind() Kind {
	switch k {
	case KindCall:
		return KindReturn
	case KindFetch:
		return KindFetchReply
	case KindWriteBack:
		return KindWriteBackAck
	case KindInvalidate:
		return KindInvalidateAck
	case KindAllocBatch:
		return KindAllocReply
	default:
		return 0
	}
}

// Seq layout: the low 56 bits are the exchange id (xid), allocated once
// per logical request/reply exchange; the high 8 bits are the attempt
// ordinal. A retried exchange keeps its xid but bumps the attempt, so
// every attempt has a distinct Seq — the pending table keys the full
// Seq, which makes a late reply to an abandoned attempt miss cleanly
// instead of being mistaken for the current attempt's reply, while the
// origin's admission table keys the xid to recognize the retry.
const (
	SeqAttemptShift = 56
	SeqXIDMask      = uint64(1)<<SeqAttemptShift - 1
)

// SeqXID extracts the exchange id from a sequence number.
func SeqXID(seq uint64) uint64 { return seq & SeqXIDMask }

// SeqAttempt extracts the attempt ordinal from a sequence number
// (zero for first attempts and for all pre-retry frames).
func SeqAttempt(seq uint64) uint8 { return uint8(seq >> SeqAttemptShift) }

// SeqWithAttempt combines an exchange id with an attempt ordinal.
func SeqWithAttempt(xid uint64, attempt uint8) uint64 {
	return (xid & SeqXIDMask) | uint64(attempt)<<SeqAttemptShift
}

// Message is one unit of communication between address spaces.
type Message struct {
	// Kind discriminates the payload.
	Kind Kind
	// Session identifies the RPC session the message belongs to.
	Session uint64
	// Seq correlates requests with replies within one (From, To) flow.
	Seq uint64
	// From and To are address-space identifiers.
	From, To uint32
	// Proc is the remote procedure name (Call only).
	Proc string
	// Err carries a remote error rendering (Return only; empty = ok).
	Err string
	// Payload is the kind-specific body, already XDR-encoded.
	Payload []byte
	// Sum is the sender-stamped integrity checksum (Checksum over the
	// message's stable fields). The runtime verifies it on receipt so a
	// frame corrupted in flight surfaces as a typed error instead of
	// silently installing wrong bytes.
	Sum uint32
	// Inc is the sender's restart incarnation, stamped by origins into
	// replies so a client can detect that the origin crashed and
	// restarted mid-session (its heap is fresh; any address the client
	// still holds is resurrected garbage). Zero means "not stamped": the
	// field is encoded as an optional trailing word only when nonzero,
	// so frames from runtimes that never restarted — and all frames from
	// older builds — stay byte-identical and decode Inc as zero.
	Inc uint32
	// Frame, when non-nil, is the ref-counted pooled buffer Payload
	// aliases (zero-copy FETCH reply frames). It never travels on the
	// wire; the final consumer calls ReleaseFrame after the last item
	// decoded from Payload has been installed.
	Frame *FrameBuf
}

// FrameBuf is a ref-counted pooled buffer backing a zero-copy message
// payload: an encoder whose bytes are either a chunk payload an origin
// encoded straight into it, or the raw body of a frame ReadFrame read off
// a stream. When the count reaches zero the buffer returns to its pool; a
// forgotten release only costs the recycle (the garbage collector still
// reclaims the buffer).
type FrameBuf struct {
	enc  *xdr.Encoder
	refs atomic.Int32
}

// chunkFramePool recycles frame buffers (FrameBuf + encoder pairs). A
// streamed closure reuses a handful of buffers for its whole chunk
// sequence: the client releases each chunk after installing it, returning
// the buffer for a later chunk of the same (or any) stream.
var chunkFramePool = sync.Pool{New: func() any {
	return &FrameBuf{enc: xdr.NewEncoder(4096)}
}}

// NewChunkBuf returns a pooled, empty frame buffer with one reference.
// Encode the chunk payload into Enc(), then attach the buffer to the
// outgoing message via Frame.
func NewChunkBuf() *FrameBuf {
	fb := chunkFramePool.Get().(*FrameBuf)
	fb.enc.Reset()
	fb.refs.Store(1)
	return fb
}

// Enc returns the buffer's encoder.
func (fb *FrameBuf) Enc() *xdr.Encoder { return fb.enc }

// Retain adds a reference.
func (fb *FrameBuf) Retain() { fb.refs.Add(1) }

// Refs reports the references outstanding: zero once every holder has
// released the buffer. For leak oracles; nothing decides on it.
func (fb *FrameBuf) Refs() int { return int(fb.refs.Load()) }

// Release drops a reference, returning the storage to its pool at zero.
// Extra releases are no-ops: a duplicated frame can reach two consumers
// under fault injection, and the duplicate must not corrupt the pool.
func (fb *FrameBuf) Release() {
	if fb.refs.Add(-1) != 0 {
		return
	}
	if cap(fb.enc.Bytes()) <= maxPooledFrame {
		chunkFramePool.Put(fb)
	}
}

// ReleaseFrame releases the pooled buffer backing a zero-copy payload.
// Safe on any message (no-op when no buffer is attached); the payload
// must not be read afterwards.
func (m *Message) ReleaseFrame() {
	if fb := m.Frame; fb != nil {
		m.Frame = nil
		fb.Release()
	}
}

// castagnoli is the CRC-32C table. hash/crc32 runs it on the processor's
// CRC instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// castagnoli4 extends castagnoli to four bytes a step (slicing-by-4):
// castagnoli4[k][b] is the CRC register after byte b and then k zero
// bytes.
var castagnoli4 = func() (t [4][256]uint32) {
	t[0] = *castagnoli
	for b := range 256 {
		for k := 1; k < 4; k++ {
			c := t[k-1][b]
			t[k][b] = castagnoli[byte(c)] ^ c>>8
		}
	}
	return t
}()

// crcWord extends the CRC-32C register h over the four big-endian bytes
// of v.
func crcWord(h, v uint32) uint32 {
	h ^= bits.ReverseBytes32(v)
	return castagnoli4[3][byte(h)] ^ castagnoli4[2][byte(h>>8)] ^ castagnoli4[1][byte(h>>16)] ^ castagnoli4[0][h>>24]
}

// crcPart extends the CRC-32C register h over p, which crc32.Update only
// reads.
func crcPart(h uint32, p []byte) uint32 {
	if len(p) == 0 {
		return h
	}
	return ^crc32.Update(^h, castagnoli, p)
}

// Checksum computes the integrity checksum over the message's stable
// fields: everything except From (stamped by the transport after the
// sender's runtime has sealed the message) and Sum itself. It is the
// CRC-32C of the big-endian fields in frame order: kind, session, seq,
// to, the length-prefixed proc and err strings, the payload, and the
// incarnation word when nonzero.
//
// The fixed-size words go through the table four bytes a step, and each
// nonempty string and the payload through one crc32.Update call, which
// costs about as much as the table takes for a dozen bytes. Handing
// crc32.Update the words in a stack array would move the array to the
// heap: it dispatches through a function value. Every message is summed
// twice, so the header's cost shows in a minimum-size session: stepping
// its 28 bytes one at a time instead made the benchmark's
// tiny_session_local op time 4 % longer (2-CPU host).
func (m *Message) Checksum() uint32 {
	h := ^uint32(0) // the CRC register, inverted as crc32.Update keeps it
	h = crcWord(h, uint32(m.Kind))
	h = crcWord(h, uint32(m.Session>>32))
	h = crcWord(h, uint32(m.Session))
	h = crcWord(h, uint32(m.Seq>>32))
	h = crcWord(h, uint32(m.Seq))
	h = crcWord(h, m.To)
	h = crcWord(h, uint32(len(m.Proc)))
	h = crcPart(h, unsafe.Slice(unsafe.StringData(m.Proc), len(m.Proc)))
	h = crcWord(h, uint32(len(m.Err)))
	h = crcPart(h, unsafe.Slice(unsafe.StringData(m.Err), len(m.Err)))
	h = crcPart(h, m.Payload)
	if m.Inc != 0 {
		h = crcWord(h, m.Inc)
	}
	return ^h
}

// Seal stamps the integrity checksum; call after every other field
// except From is final.
func (m *Message) Seal() { m.Sum = m.Checksum() }

// SumOK verifies the integrity checksum.
func (m *Message) SumOK() bool { return m.Sum == m.Checksum() }

// WireSize returns the encoded size of the message, used by the network
// cost model.
func (m *Message) WireSize() int {
	n := 8*4 +
		4 + len(m.Proc) + pad4(len(m.Proc)) +
		4 + len(m.Err) + pad4(len(m.Err)) +
		4 + len(m.Payload) + pad4(len(m.Payload))
	if m.Inc != 0 {
		n += 4
	}
	return n
}

func pad4(n int) int { return (4 - n%4) % 4 }

// Encode appends the XDR encoding of m to enc.
func (m *Message) Encode(enc *xdr.Encoder) {
	enc.PutUint32(uint32(m.Kind))
	enc.PutUint64(m.Session)
	enc.PutUint64(m.Seq)
	enc.PutUint32(m.From)
	enc.PutUint32(m.To)
	enc.PutString(m.Proc)
	enc.PutString(m.Err)
	enc.PutOpaque(m.Payload)
	enc.PutUint32(m.Sum)
	if m.Inc != 0 {
		enc.PutUint32(m.Inc)
	}
}

// Decode parses one message from dec. The payload is copied out of the
// decoder's buffer, so the buffer may be reused immediately.
func Decode(dec *xdr.Decoder) (Message, error) {
	m, err := decodeAlias(dec)
	if err != nil {
		return m, err
	}
	p := make([]byte, len(m.Payload))
	copy(p, m.Payload)
	m.Payload = p
	return m, nil
}

// decodeAlias parses one message from dec with the payload aliasing the
// decoder's buffer. Callers own the buffer's lifetime.
func decodeAlias(dec *xdr.Decoder) (Message, error) {
	var m Message
	k, err := dec.Uint32()
	if err != nil {
		return m, fmt.Errorf("wire: kind: %w", err)
	}
	m.Kind = Kind(k)
	if !m.Kind.Valid() {
		return m, fmt.Errorf("wire: invalid kind %d", k)
	}
	if m.Session, err = dec.Uint64(); err != nil {
		return m, fmt.Errorf("wire: session: %w", err)
	}
	if m.Seq, err = dec.Uint64(); err != nil {
		return m, fmt.Errorf("wire: seq: %w", err)
	}
	if m.From, err = dec.Uint32(); err != nil {
		return m, fmt.Errorf("wire: from: %w", err)
	}
	if m.To, err = dec.Uint32(); err != nil {
		return m, fmt.Errorf("wire: to: %w", err)
	}
	if m.Proc, err = dec.String(); err != nil {
		return m, fmt.Errorf("wire: proc: %w", err)
	}
	if m.Err, err = dec.String(); err != nil {
		return m, fmt.Errorf("wire: err: %w", err)
	}
	if m.Payload, err = dec.Opaque(); err != nil {
		return m, fmt.Errorf("wire: payload: %w", err)
	}
	if m.Sum, err = dec.Uint32(); err != nil {
		return m, fmt.Errorf("wire: sum: %w", err)
	}
	// Optional trailing incarnation word: frames from senders that never
	// restarted (and frames from older builds) end at Sum and decode
	// Inc as zero.
	if dec.Remaining() >= 4 {
		if m.Inc, err = dec.Uint32(); err != nil {
			return m, fmt.Errorf("wire: inc: %w", err)
		}
	}
	return m, nil
}

// maxFrame bounds a single framed message (16 MiB), protecting stream
// readers from corrupt length prefixes.
const maxFrame = 16 << 20

// maxPooledFrame is the largest scratch buffer the frame pools retain.
// Occasional giant frames are served by one-shot allocations instead of
// pinning megabytes inside the pools forever.
const maxPooledFrame = 1 << 20

// frameEncPool recycles the encoders WriteFrame serializes frames into. A
// connection in steady state encodes thousands of messages; with the
// pool, writing allocates nothing once the encoders have grown to the
// session's working frame size. Received frames are read into
// chunkFramePool's buffers (ReadFrame).
var frameEncPool = sync.Pool{New: func() any { return xdr.NewEncoder(4096) }}

// WriteFrame writes m to w as a length-prefixed frame, length word and
// body in one Write: a buffered writer passes a frame larger than its
// buffer straight through, so the frame reaches the connection whole.
func WriteFrame(w io.Writer, m *Message) error {
	enc := frameEncPool.Get().(*xdr.Encoder)
	defer func() {
		if cap(enc.Bytes()) <= maxPooledFrame {
			enc.Reset()
			frameEncPool.Put(enc)
		}
	}()
	enc.PutUint32(0) // the length word, set once the body is encoded
	m.Encode(enc)
	frame := enc.Bytes()
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r and decodes it.
// FETCH reply frames, chunked (KindFetchChunk) or monolithic
// (KindFetchReply), decode zero-copy: the payload aliases the pooled
// frame buffer, which travels with the message as Frame and returns to
// the pool when the consumer calls ReleaseFrame, as a reply sent in
// process already does. All other kinds copy the payload out so the
// buffer recycles immediately.
func ReadFrame(r io.Reader) (Message, error) {
	return readFrame(r, NewChunkBuf())
}

// readFrame is ReadFrame reading into fb, length word included. fb's
// reference passes to the returned message's Frame or is released.
func readFrame(r io.Reader, fb *FrameBuf) (Message, error) {
	fb.enc.Grow(4)
	fb.enc.Truncate(4)
	if _, err := io.ReadFull(r, fb.enc.Bytes()); err != nil {
		fb.Release()
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(fb.enc.Bytes())
	if n > maxFrame {
		fb.Release()
		return Message{}, fmt.Errorf("wire: frame length %d out of range", n)
	}
	fb.enc.Reset()
	fb.enc.Grow(int(n))
	fb.enc.Truncate(int(n))
	body := fb.enc.Bytes()
	if _, err := io.ReadFull(r, body); err != nil {
		fb.Release()
		return Message{}, fmt.Errorf("wire: read frame body: %w", err)
	}
	m, err := decodeAlias(xdr.NewDecoder(body))
	if err != nil {
		fb.Release()
		return Message{}, err
	}
	if m.Kind == KindFetchChunk || m.Kind == KindFetchReply {
		m.Frame = fb
		return m, nil
	}
	p := make([]byte, len(m.Payload))
	copy(p, m.Payload)
	m.Payload = p
	fb.Release()
	return m, nil
}
