package wire

import (
	"bufio"
	"bytes"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/xdr"
)

func sampleMessage() Message {
	return Message{
		Kind:    KindCall,
		Session: 7,
		Seq:     99,
		From:    1,
		To:      2,
		Proc:    "searchTree",
		Payload: []byte{1, 2, 3, 4, 5},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage()
	enc := xdr.NewEncoder(64)
	m.Encode(enc)
	got, err := Decode(xdr.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestMessageRoundTripWithError(t *testing.T) {
	m := Message{Kind: KindReturn, Session: 1, Seq: 2, From: 3, To: 4, Err: "proc not found", Payload: []byte{}}
	enc := xdr.NewEncoder(64)
	m.Encode(enc)
	got, err := Decode(xdr.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Err != m.Err {
		t.Errorf("Err = %q, want %q", got.Err, m.Err)
	}
}

func TestDecodeRejectsInvalidKind(t *testing.T) {
	enc := xdr.NewEncoder(8)
	enc.PutUint32(999)
	if _, err := Decode(xdr.NewDecoder(enc.Bytes())); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := sampleMessage()
	enc := xdr.NewEncoder(64)
	m.Encode(enc)
	full := enc.Bytes()
	for n := 0; n < len(full); n += 4 {
		if _, err := Decode(xdr.NewDecoder(full[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestKindStringAndReplies(t *testing.T) {
	if KindCall.String() != "call" || KindFetchReply.String() != "fetch-reply" {
		t.Error("Kind.String mismatch")
	}
	if Kind(0).Valid() || !KindInvalidate.Valid() || KindValidate.Valid() || KindValidateReply.Valid() {
		t.Error("Kind.Valid mismatch")
	}
	replies := []Kind{KindReturn, KindFetchReply, KindWriteBackAck, KindInvalidateAck, KindAllocReply}
	for _, k := range replies {
		if !k.IsReply() {
			t.Errorf("%v not classified as reply", k)
		}
	}
	requests := []Kind{KindCall, KindFetch, KindWriteBack, KindInvalidate, KindAllocBatch}
	for _, k := range requests {
		if k.IsReply() {
			t.Errorf("%v classified as reply", k)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	m := sampleMessage()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("frame round trip mismatch")
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{sampleMessage(), {Kind: KindFetch, Seq: 1, Payload: []byte{9}}, {Kind: KindInvalidate, Payload: []byte{}}}
	for i := range msgs {
		if err := WriteFrame(&buf, &msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != msgs[i].Kind {
			t.Errorf("frame %d kind %v, want %v", i, got.Kind, msgs[i].Kind)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("after last frame: %v, want EOF", err)
	}
}

// TestReadFrameAliasesFetchReplies pins which frames decode zero-copy:
// both FETCH reply forms keep the pooled read buffer as Frame until the
// consumer releases it; every other kind copies its payload out.
func TestReadFrameAliasesFetchReplies(t *testing.T) {
	for _, k := range []Kind{KindFetchReply, KindFetchChunk, KindCall, KindFetch, KindReturn} {
		m := Message{Kind: k, Seq: 5, Payload: []byte{1, 2, 3, 4, 5}}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Payload, m.Payload) {
			t.Errorf("%v: payload %v, want %v", k, got.Payload, m.Payload)
		}
		aliased := k == KindFetchReply || k == KindFetchChunk
		if (got.Frame != nil) != aliased {
			t.Errorf("%v: pooled frame attached = %v, want %v", k, got.Frame != nil, aliased)
			continue
		}
		if aliased {
			if n := got.Frame.Refs(); n != 1 {
				t.Errorf("%v: frame holds %d references, want 1", k, n)
			}
			fb := got.Frame
			got.ReleaseFrame()
			if n := fb.Refs(); n != 0 || got.Frame != nil {
				t.Errorf("%v: after release %d references, frame %v", k, n, got.Frame)
			}
		}
	}
}

// TestFrameRoundTripAllocs is the framing layer's allocation gate: with
// the length word written and read through the pooled buffers, a FETCH
// reply frame goes out and comes back without an allocation (the header
// arrays once escaped, one each way), and a CALL frame allocates only its
// owned copies, the payload and the procedure name.
func TestFrameRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	payload := make([]byte, 2048)
	for _, c := range []struct {
		m    Message
		want float64
	}{
		{Message{Kind: KindFetchReply, Session: 7, Seq: 42, From: 1, To: 2, Payload: payload}, 0},
		{sampleMessage(), 2},
	} {
		var buf bytes.Buffer
		n := testing.AllocsPerRun(200, func() {
			buf.Reset()
			if err := WriteFrame(&buf, &c.m); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFrame(&buf)
			if err != nil || got.Seq != c.m.Seq {
				t.Fatalf("round trip: %v, seq %d", err, got.Seq)
			}
			got.ReleaseFrame()
		})
		if n > c.want {
			t.Errorf("a %v frame round trip allocates %.0f times, want at most %.0f", c.m.Kind, n, c.want)
		}
	}
}

// writeCounter records the size of every Write it is handed.
type writeCounter struct{ writes []int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return len(p), nil
}

// TestWriteFrameIsOneWrite: a frame reaches the writer in one Write, so a
// 20 KiB frame passes through a 4 KiB bufio.Writer as one write to the
// connection instead of a header write and a body write.
func TestWriteFrameIsOneWrite(t *testing.T) {
	m := Message{Kind: KindFetchReply, Seq: 3, Payload: make([]byte, 20<<10)}
	var conn writeCounter
	bw := bufio.NewWriter(&conn)
	if err := WriteFrame(bw, &m); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := 4 + m.WireSize(); len(conn.writes) != 1 || conn.writes[0] != want {
		t.Fatalf("the frame reached the connection in writes of %v bytes, want one of %d", conn.writes, want)
	}
}

// checksumBytewise is Checksum as it was computed before each part went
// through one crc32.Update call: every header and string byte through the
// table, the payload through crc32.Update.
func checksumBytewise(m *Message) uint32 {
	h := ^uint32(0)
	step := func(b byte) { h = castagnoli[byte(h)^b] ^ h>>8 }
	word := func(v uint64, n int) {
		for i := n - 1; i >= 0; i-- {
			step(byte(v >> (8 * i)))
		}
	}
	word(uint64(m.Kind), 4)
	word(m.Session, 8)
	word(m.Seq, 8)
	word(uint64(m.To), 4)
	word(uint64(len(m.Proc)), 4)
	for i := 0; i < len(m.Proc); i++ {
		step(m.Proc[i])
	}
	word(uint64(len(m.Err)), 4)
	for i := 0; i < len(m.Err); i++ {
		step(m.Err[i])
	}
	h = ^crc32.Update(^h, castagnoli, m.Payload)
	if m.Inc != 0 {
		word(uint64(m.Inc), 4)
	}
	return ^h
}

// TestChecksumMatchesBytewise holds Checksum to the byte-wise computation
// over random messages, empty and nonempty strings and payloads, with and
// without an incarnation word: the sums on the wire do not change.
func TestChecksumMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bytesOf := func(max int) []byte {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return b
	}
	for i := 0; i < 5000; i++ {
		m := Message{
			Kind:    Kind(rng.Uint32()),
			Session: rng.Uint64(),
			Seq:     rng.Uint64(),
			From:    rng.Uint32(),
			To:      rng.Uint32(),
			Payload: bytesOf(300),
		}
		if rng.Intn(2) == 0 {
			m.Proc = string(bytesOf(40))
		}
		if rng.Intn(2) == 0 {
			m.Err = string(bytesOf(40))
		}
		if rng.Intn(2) == 0 {
			m.Inc = rng.Uint32()
		}
		if got, want := m.Checksum(), checksumBytewise(&m); got != want {
			t.Fatalf("message %d %+v: Checksum %#x, byte-wise %#x", i, m, got, want)
		}
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	r := bytes.NewReader([]byte{0x7f, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(r); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("huge frame err = %v", err)
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	msgs := []Message{
		sampleMessage(),
		{Kind: KindReturn, Err: "x"},
		{Kind: KindFetch, Proc: "abc", Payload: make([]byte, 33)},
	}
	for _, m := range msgs {
		enc := xdr.NewEncoder(64)
		m.Encode(enc)
		if got := m.WireSize(); got != enc.Len() {
			t.Errorf("WireSize() = %d, encoded = %d for %+v", got, enc.Len(), m)
		}
	}
}

func TestLongPtr(t *testing.T) {
	lp := LongPtr{Space: 3, Addr: 0x1000, Type: 9}
	if lp.IsNull() {
		t.Error("non-null long pointer reported null")
	}
	if !(LongPtr{}).IsNull() {
		t.Error("zero long pointer not null")
	}
	if got := lp.String(); got != "<3:0x1000:t9>" {
		t.Errorf("String() = %q", got)
	}
}

func TestCallPayloadRoundTrip(t *testing.T) {
	p := CallPayload{
		Args: []Arg{
			ScalarArg(types.Int64, 0xdeadbeef),
			PtrArg(LongPtr{Space: 1, Addr: 0x2000, Type: 5}),
			ScalarArg(types.Float64, 123),
		},
		Items: []DataItem{
			{LP: LongPtr{Space: 2, Addr: 0x40, Type: 5}, Dirty: true, Bytes: []byte{1, 2, 3}},
		},
		Parts: []uint32{1, 2, 7},
	}
	got, err := DecodeCallPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("call payload round trip:\n got %+v\nwant %+v", got, p)
	}
}

func TestCallPayloadEmpty(t *testing.T) {
	p := CallPayload{}
	got, err := DecodeCallPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Args) != 0 || len(got.Items) != 0 {
		t.Errorf("empty payload round trip = %+v", got)
	}
}

func TestCallPayloadRejectsBadKind(t *testing.T) {
	e := xdr.NewEncoder(16)
	e.PutUint32(1)  // one arg
	e.PutUint32(77) // invalid kind
	e.PutUint64(0)
	if _, err := DecodeCallPayload(e.Bytes()); err == nil {
		t.Error("invalid arg kind accepted")
	}
}

func TestFetchPayloadRoundTrip(t *testing.T) {
	p := FetchPayload{
		Wants: []LongPtr{
			{Space: 1, Addr: 0x10, Type: 2},
			{Space: 1, Addr: 0x20, Type: 2},
		},
		Budget: 8192,
	}
	got, err := DecodeFetchPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("fetch payload round trip mismatch: %+v", got)
	}
}

func TestFetchPayloadSpeculativeRoundTrip(t *testing.T) {
	p := FetchPayload{
		Wants:       []LongPtr{{Space: 1, Addr: 0x10, Type: 2}},
		Budget:      8192,
		Speculative: true,
	}
	got, err := DecodeFetchPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("speculative fetch payload round trip mismatch: %+v", got)
	}
}

// TestFetchPayloadEncodingUnchanged pins the demand-path wire layout: the
// word after the budget carries flags only, so a demand FETCH sends it as
// zero, and the only difference a speculative frame carries is its top
// bit.
func TestFetchPayloadEncodingUnchanged(t *testing.T) {
	p := FetchPayload{
		Wants:  []LongPtr{{Space: 2, Addr: 0x10040, Type: 3}},
		Budget: 4096,
	}
	oldFormat := []byte{
		0, 0, 0, 1, // want count
		0, 0, 0, 2, 0, 1, 0, 0x40, 0, 0, 0, 3, // long pointer
		0, 0, 0x10, 0, // budget
		0, 0, 0, 0, // flags
	}
	if got := p.Encode(); !reflect.DeepEqual(got, oldFormat) {
		t.Errorf("demand fetch encoding changed:\ngot  %x\nwant %x", got, oldFormat)
	}
	got, err := DecodeFetchPayload(oldFormat)
	if err != nil {
		t.Fatalf("demand frame failed to decode: %v", err)
	}
	if got.Speculative || got.Budget != 4096 || len(got.Wants) != 1 {
		t.Errorf("demand frame decoded wrong: %+v", got)
	}
	p.Speculative = true
	spec := p.Encode()
	if len(spec) != len(oldFormat) {
		t.Fatalf("speculative flag changed the frame size: %d vs %d", len(spec), len(oldFormat))
	}
	want := append([]byte(nil), oldFormat...)
	want[len(want)-4] |= 0x80 // only delta: the top bit of the flags word
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("speculative encoding differs beyond the flag bit:\ngot  %x\nwant %x", spec, want)
	}
	// A hashed request sets bit 30 and appends one sum per want.
	p.Speculative, p.Sums = false, []uint64{0x0102030405060708}
	want = append(append([]byte(nil), oldFormat...), 1, 2, 3, 4, 5, 6, 7, 8)
	want[len(oldFormat)-4] |= 0x40
	if got := p.Encode(); !reflect.DeepEqual(got, want) {
		t.Errorf("hashed fetch encoding:\ngot  %x\nwant %x", got, want)
	}
	if got, err := DecodeFetchPayload(want); err != nil || !reflect.DeepEqual(got, p) {
		t.Errorf("hashed fetch decoded to %+v, %v; want %+v", got, err, p)
	}
}

// TestFetchFlagsRejectCountBits: the flags word has two bits. A frame
// setting any other — such as the count of leading wants an older FETCH
// carried there — is refused, not served under a contract it did not ask
// for.
func TestFetchFlagsRejectCountBits(t *testing.T) {
	p := FetchPayload{Wants: []LongPtr{{Space: 2, Addr: 0x10040, Type: 3}, {Space: 2, Addr: 0x10060, Type: 3}}, Budget: 4096}
	for _, flags := range []uint32{1, 2, 1 << 29, FetchSpeculative | 1, FetchHashed | 2} {
		b := p.Encode()
		b[len(b)-4], b[len(b)-3], b[len(b)-2], b[len(b)-1] = byte(flags>>24), byte(flags>>16), byte(flags>>8), byte(flags)
		if flags&FetchHashed != 0 {
			b = append(b, make([]byte, 8*len(p.Wants))...)
		}
		if got, err := DecodeFetchPayload(b); err == nil {
			t.Errorf("flags %#x decoded to %+v; want an error", flags, got)
		}
	}
}

func TestItemsPayloadRoundTrip(t *testing.T) {
	p := ItemsPayload{Items: []DataItem{
		{LP: LongPtr{Space: 1, Addr: 0x10, Type: 2}, Bytes: []byte{0xFF}},
		{LP: LongPtr{Space: 4, Addr: 0x99, Type: 3}, Dirty: true, Bytes: []byte{}},
		{LP: LongPtr{Space: 4, Addr: 0x9c, Type: 3}, Current: true, Bytes: []byte{}},
	}}
	got, err := DecodeItemsPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("items payload round trip mismatch: %+v", got)
	}
}

func TestDeltaItemRoundTrip(t *testing.T) {
	p := ItemsPayload{Items: []DataItem{
		{LP: LongPtr{Space: 1, Addr: 0x10, Type: 2}, Dirty: true, Delta: true, BaseVer: 7, Bytes: []byte{0, 0, 0, 1, 0, 0, 0, 4}},
		{LP: LongPtr{Space: 1, Addr: 0x20, Type: 2}, Delta: true, BaseVer: 1, Bytes: []byte{0, 0, 0, 0}},
		{LP: LongPtr{Space: 1, Addr: 0x30, Type: 2}, Dirty: true, Bytes: []byte{9}},
	}}
	enc := p.Encode()
	if len(enc) != itemsEncodedSize(p.Items) {
		t.Errorf("itemsEncodedSize = %d, encoded %d", itemsEncodedSize(p.Items), len(enc))
	}
	got, err := DecodeItemsPayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("delta items round trip mismatch: %+v", got)
	}
}

// TestFullItemEncodingUnchanged pins the wire layout of a full-body item:
// the flags word sits exactly where the dirty boolean used to, so
// protocol revisions without delta shipping (and the committed benchmark
// baselines) see byte-identical payloads.
func TestFullItemEncodingUnchanged(t *testing.T) {
	p := ItemsPayload{Items: []DataItem{
		{LP: LongPtr{Space: 1, Addr: 0x10, Type: 2}, Dirty: true, Bytes: []byte{0xAB}},
	}}
	want := []byte{
		0, 0, 0, 1, // item count
		0, 0, 0, 1, 0, 0, 0, 0x10, 0, 0, 0, 2, // long pointer
		0, 0, 0, 1, // flags word == old dirty bool
		0, 0, 0, 1, 0xAB, 0, 0, 0, // opaque bytes + padding
	}
	if got := p.Encode(); !reflect.DeepEqual(got, want) {
		t.Errorf("full item encoding changed:\ngot  %x\nwant %x", got, want)
	}
}

func TestItemsRejectUnknownFlags(t *testing.T) {
	p := ItemsPayload{Items: []DataItem{{LP: LongPtr{Space: 1, Addr: 4, Type: 2}, Bytes: []byte{}}}}
	enc := p.Encode()
	enc[4+EncodedLongPtrSize+3] = 0x40 // corrupt the flags word
	if _, err := DecodeItemsPayload(enc); err == nil {
		t.Fatal("unknown item flags decoded without error")
	}
}

func TestAllocBatchRoundTrip(t *testing.T) {
	p := AllocBatchPayload{
		Allocs: []AllocReq{{Token: 1, Type: 5}, {Token: 2, Type: 6}},
		Frees:  []LongPtr{{Space: 1, Addr: 0x30, Type: 5}},
	}
	got, err := DecodeAllocBatchPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("alloc batch round trip mismatch: %+v", got)
	}
}

func TestAllocReplyRoundTrip(t *testing.T) {
	p := AllocReplyPayload{Addrs: []vmem.VAddr{0x100, 0x200}}
	got, err := DecodeAllocReplyPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Addrs, p.Addrs) {
		t.Errorf("alloc reply round trip = %+v", got)
	}
}

func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(kind uint8, session, seq uint64, from, to uint32, proc string, payload []byte) bool {
		k := Kind(kind%10) + 1
		m := Message{Kind: k, Session: session, Seq: seq, From: from, To: to, Proc: proc, Payload: payload}
		if m.Payload == nil {
			m.Payload = []byte{}
		}
		enc := xdr.NewEncoder(m.WireSize())
		m.Encode(enc)
		got, err := Decode(xdr.NewDecoder(enc.Bytes()))
		if err != nil {
			return false
		}
		if got.Payload == nil {
			got.Payload = []byte{}
		}
		return reflect.DeepEqual(got, m) && m.WireSize() == enc.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Robustness: arbitrary bytes must never panic any decoder — errors only.
func TestQuickDecodersNeverPanic(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("decoder panicked on %x: %v", b, r)
				ok = false
			}
		}()
		_, _ = Decode(xdr.NewDecoder(b))
		_, _ = DecodeCallPayload(b)
		_, _ = DecodeFetchPayload(b)
		_, _ = DecodeItemsPayload(b)
		_, _ = DecodeAllocBatchPayload(b)
		_, _ = DecodeAllocReplyPayload(b)
		_, _ = ReadFrame(bytes.NewReader(b))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Mutation robustness: take a valid encoded message and flip bytes; the
// decoder must fail cleanly or succeed, never panic.
func TestMutatedMessageRobustness(t *testing.T) {
	m := sampleMessage()
	enc := xdr.NewEncoder(64)
	m.Encode(enc)
	base := enc.Bytes()
	for i := 0; i < len(base); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := make([]byte, len(base))
			copy(mut, base)
			mut[i] ^= flip
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic decoding mutation at byte %d: %v", i, r)
					}
				}()
				_, _ = Decode(xdr.NewDecoder(mut))
			}()
		}
	}
}

func TestFuncArgRoundTrip(t *testing.T) {
	p := CallPayload{
		Args:  []Arg{FuncArg(3, "TreeService.search"), ScalarArg(types.Int64, 1)},
		Parts: []uint32{1},
	}
	got, err := DecodeCallPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Args[0].Kind != types.Func || got.Args[0].FnSpace != 3 || got.Args[0].FnName != "TreeService.search" {
		t.Errorf("func arg round trip = %+v", got.Args[0])
	}
}

// TestChecksumRejectsEverySingleBitFlip seals a frame and flips each bit
// of each checksummed field in turn — the incarnation word included when
// it is present: none of the results may verify. CRC-32C detects every
// single-bit error by construction; the test pins that every field is
// actually fed to it.
func TestChecksumRejectsEverySingleBitFlip(t *testing.T) {
	for _, inc := range []uint32{0, 0x01020304} {
		m := sampleMessage()
		m.Err = "remote: no such procedure"
		m.Inc = inc
		m.Seal()
		if !m.SumOK() {
			t.Fatalf("inc=%#x: sealed frame does not verify", inc)
		}
		check := func(field string, bit int, c Message) {
			t.Helper()
			if c.SumOK() {
				t.Errorf("inc=%#x: flipping bit %d of %s went undetected", inc, bit, field)
			}
		}
		for b := 0; b < 32; b++ {
			c := m
			c.Kind ^= 1 << b
			check("Kind", b, c)
			c = m
			c.To ^= 1 << b
			check("To", b, c)
			if inc != 0 {
				// A zero Inc is not on the wire; flipping one of its bits
				// adds the word, which the next loop's length change covers.
				c = m
				if c.Inc ^= 1 << b; c.Inc != 0 {
					check("Inc", b, c)
				}
			}
		}
		for b := 0; b < 64; b++ {
			c := m
			c.Session ^= 1 << b
			check("Session", b, c)
			c = m
			c.Seq ^= 1 << b
			check("Seq", b, c)
		}
		flip := func(s []byte, b int) []byte {
			out := bytes.Clone(s)
			out[b/8] ^= 1 << (b % 8)
			return out
		}
		for b := 0; b < 8*len(m.Proc); b++ {
			c := m
			c.Proc = string(flip([]byte(m.Proc), b))
			check("Proc", b, c)
		}
		for b := 0; b < 8*len(m.Err); b++ {
			c := m
			c.Err = string(flip([]byte(m.Err), b))
			check("Err", b, c)
		}
		for b := 0; b < 8*len(m.Payload); b++ {
			c := m
			c.Payload = flip(m.Payload, b)
			check("Payload", b, c)
		}
		// Bytes moving between adjacent variable-length fields must not
		// cancel out: the length prefixes are part of the sum.
		c := m
		c.Proc, c.Err = m.Proc[:len(m.Proc)-1], m.Proc[len(m.Proc)-1:]+m.Err
		check("Proc/Err boundary", 0, c)
		c = m
		c.Inc = inc ^ 1
		check("Inc presence", 0, c)
	}
}

// TestChecksumAllocatesNothing guards the per-message fixed cost: the
// sum runs twice per frame on every exchange.
func TestChecksumAllocatesNothing(t *testing.T) {
	m := sampleMessage()
	m.Err = "e"
	var sink uint32
	if n := testing.AllocsPerRun(100, func() { sink += m.Checksum() }); n != 0 {
		t.Fatalf("Checksum allocates %.0f times per call", n)
	}
	_ = sink
}

// TestChecksumIsCRC32C pins the sum to the standard CRC-32C of the field
// bytes in frame order, so another implementation can reproduce it from
// PROTOCOL.md alone.
func TestChecksumIsCRC32C(t *testing.T) {
	m := sampleMessage()
	m.Err = "x"
	m.Inc = 9
	e := xdr.NewEncoder(64)
	e.PutUint32(uint32(m.Kind))
	e.PutUint64(m.Session)
	e.PutUint64(m.Seq)
	e.PutUint32(m.To)
	e.PutUint32(uint32(len(m.Proc)))
	raw := append(e.Bytes(), m.Proc...)
	raw = append(raw, 0, 0, 0, byte(len(m.Err)))
	raw = append(raw, m.Err...)
	raw = append(raw, m.Payload...)
	raw = append(raw, 0, 0, 0, byte(m.Inc))
	if got, want := m.Checksum(), crc32.Checksum(raw, crc32.MakeTable(crc32.Castagnoli)); got != want {
		t.Fatalf("Checksum = %#x, CRC-32C of the field bytes = %#x", got, want)
	}
}

// TestItemWriterAndReader: the writer's in-place forms write what Put
// writes, Unput lets the last item be written again, End back-patches the
// count, Since reads a batch back, and ReadItems opens a cursor that moves
// the decoder past the vector, reads again from a copy, and allocates
// nothing.
func TestItemWriterAndReader(t *testing.T) {
	lp := func(a uint32) LongPtr { return LongPtr{Space: 1, Addr: vmem.VAddr(a), Type: 2} }
	items := []DataItem{
		{LP: lp(0x10), Dirty: true, Bytes: []byte{0, 0, 0, 0, 0, 0, 0, 9}},
		{LP: lp(0x20), Bytes: []byte{1, 2, 3, 4, 5}},
		{LP: lp(0x30), Dirty: true, Delta: true, BaseVer: 7, Bytes: []byte{0, 0, 0, 0}},
		{LP: lp(0x40), Current: true, Bytes: []byte{}},
	}
	var e xdr.Encoder
	e.PutUint32(0xfeed) // what precedes the vector in a frame
	w := BeginItems(&e)
	at := w.BeginBody(items[0].LP, true)
	e.PutUint64(9)
	if body := w.EndBody(at); !bytes.Equal(body, items[0].Bytes) || cap(body) != len(body) {
		t.Errorf("EndBody returned %x (cap %d), want %x", body, cap(body), items[0].Bytes)
	}
	at, framed := w.PutBody(items[1].LP, false, []byte{0xff})
	if !bytes.Equal(framed, []byte{0xff}) {
		t.Errorf("PutBody framed %x", framed)
	}
	w.Unput(at)
	at, framed = w.PutBody(items[1].LP, false, items[1].Bytes)
	if !bytes.Equal(framed, items[1].Bytes) || at != 4+4+ItemSize(8) {
		t.Errorf("PutBody at %d framed %x", at, framed)
	}
	mark := w.Mark()
	w.Put(items[2])
	w.Put(items[3])
	w.End()
	if w.Len() != len(items) {
		t.Errorf("writer counts %d items, want %d", w.Len(), len(items))
	}
	want := (&ItemsPayload{Items: items}).Encode()
	if !bytes.Equal(e.Bytes()[4:], want) {
		t.Fatalf("written vector\n%x\nwant\n%x", e.Bytes()[4:], want)
	}
	since := w.Since(mark)
	if got, err := since.all(); err != nil || !reflect.DeepEqual(got, items[2:]) {
		t.Errorf("Since reads %+v, %v; want %+v", got, err, items[2:])
	}

	d := xdr.NewDecoder(e.Bytes())
	if _, err := d.Uint32(); err != nil {
		t.Fatal(err)
	}
	r, err := ReadItems(d)
	if err != nil || d.Remaining() != 0 || r.Len() != len(items) {
		t.Fatalf("ReadItems: %v, %d bytes left, %d items", err, d.Remaining(), r.Len())
	}
	if !r.Has(ItemDelta) || !r.Has(ItemCurrent) || r.Has(1<<3) {
		t.Errorf("Has: delta %v, current %v, bit 3 %v", r.Has(ItemDelta), r.Has(ItemCurrent), r.Has(1<<3))
	}
	for i := 0; i < 2; i++ {
		again := r // a copy reads the vector again
		if got, err := again.all(); err != nil || !reflect.DeepEqual(got, items) {
			t.Errorf("pass %d reads %+v, %v", i, got, err)
		}
	}
	for range items {
		_, _ = r.Next()
	}
	if _, err := r.Next(); err != io.EOF || r.Len() != 0 {
		t.Errorf("Next past the end: %v, %d left", err, r.Len())
	}
	if n := testing.AllocsPerRun(100, func() {
		d := xdr.NewDecoder(want)
		r, _ := ReadItems(d)
		for it, err := r.Next(); err == nil; it, err = r.Next() {
			_ = it
		}
	}); n != 0 {
		t.Errorf("reading a vector allocates %v times, want 0", n)
	}
}
