package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/xdr"
)

// Fuzz targets for the wire codecs. The contract under test is uniform:
// a decoder fed arbitrary bytes returns an error or a valid value — it
// never panics, and never lets a hostile length field force allocation
// disproportionate to the input. Successfully decoded frames must
// round-trip through the encoder unchanged.

// fuzzMessage is a small but representative frame for corpus seeding.
func fuzzMessage() *Message {
	p := CallPayload{
		Args: []Arg{
			ScalarArg(types.Int64, 42),
			PtrArg(LongPtr{Space: 2, Addr: 0x10040, Type: 1}),
			FuncArg(3, "visit"),
		},
		Items: []DataItem{
			{LP: LongPtr{Space: 1, Addr: 0x10000, Type: 1}, Dirty: true, Bytes: []byte{1, 2, 3, 4}},
			{LP: LongPtr{Space: 1, Addr: 0x10020, Type: 1}, Delta: true, BaseVer: 3, Bytes: []byte{0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 2, 9, 9, 0, 0}},
		},
		Parts: []uint32{2, 3},
	}
	m := &Message{
		Kind: KindCall, Session: 0x100000007, Seq: 9, From: 1, To: 2,
		Proc: "sum", Payload: p.Encode(),
	}
	m.Seal()
	return m
}

func FuzzFrameDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, fuzzMessage()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame that decoded must re-encode and decode to the same
		// message (From travels on the wire, so it round-trips here even
		// though the checksum does not cover it).
		var out bytes.Buffer
		if err := WriteFrame(&out, &m); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		m2, err := ReadFrame(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m.Kind != m2.Kind || m.Session != m2.Session || m.Seq != m2.Seq ||
			m.From != m2.From || m.To != m2.To || m.Proc != m2.Proc ||
			m.Err != m2.Err || m.Sum != m2.Sum || !bytes.Equal(m.Payload, m2.Payload) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", m, m2)
		}
	})
}

// FuzzReadFrame pushes arbitrary byte streams through ReadFrame, frame
// after frame until it fails: it must not panic, must refuse a length
// word above maxFrame before reading a body byte, and must hand the
// pooled buffer on with the message or release it, on every error path
// too.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	for _, m := range []*Message{fuzzMessage(), {Kind: KindFetchReply, Seq: 2, Payload: []byte{1, 2, 3}}} {
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-3])
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 1})
	f.Add([]byte{0x01, 0x00, 0x00, 0x01, 0xAA})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			at := r.Len()
			fb := NewChunkBuf()
			m, err := readFrame(r, fb)
			if err != nil {
				if n := fb.Refs(); n != 0 {
					t.Fatalf("error %v left the pooled buffer with %d references", err, n)
				}
				if at >= 4 && binary.BigEndian.Uint32(data[len(data)-at:]) > maxFrame && at-r.Len() != 4 {
					t.Fatalf("a length word above %d read %d bytes past it", maxFrame, at-r.Len()-4)
				}
				return
			}
			if n := binary.BigEndian.Uint32(data[len(data)-at:]); n > maxFrame {
				t.Fatalf("a frame of %d bytes, above the %d bound, decoded", n, maxFrame)
			}
			if (m.Frame == fb) != (fb.Refs() == 1) || m.Frame != nil && m.Frame != fb {
				t.Fatalf("a decoded %v frame holds %d references to the pooled buffer, attached %v", m.Kind, fb.Refs(), m.Frame != nil)
			}
			m.ReleaseFrame()
			if n := fb.Refs(); n != 0 {
				t.Fatalf("a decoded %v frame left %d references after its release", m.Kind, n)
			}
		}
	})
}

// refGetItems is the item-vector parser as it was before ItemReader: one
// pass straight into a slice. The reader must accept exactly what it
// accepted — it refused unknown flags, a current item with bytes or with
// another flag, and counts over the cap or over the bytes remaining — and
// read the same items.
func refGetItems(d *xdr.Decoder) ([]DataItem, error) {
	nw, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	n, err := boundCount(d, nw, 20, "item")
	if err != nil {
		return nil, err
	}
	var items []DataItem
	for i := 0; i < n; i++ {
		var it DataItem
		if it.LP, err = getLongPtr(d); err != nil {
			return nil, err
		}
		flags, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		if flags&^itemFlagsMask != 0 {
			return nil, fmt.Errorf("unknown item flags %#x", flags)
		}
		it.Dirty = flags&ItemDirty != 0
		it.Delta = flags&ItemDelta != 0
		it.Current = flags&ItemCurrent != 0
		if it.Current && flags != ItemCurrent {
			return nil, fmt.Errorf("current item with flags %#x", flags)
		}
		if it.Delta {
			if it.BaseVer, err = d.Uint32(); err != nil {
				return nil, err
			}
		}
		if it.Bytes, err = d.Opaque(); err != nil {
			return nil, err
		}
		if it.Current && len(it.Bytes) != 0 {
			return nil, fmt.Errorf("current item carries %d bytes", len(it.Bytes))
		}
		items = append(items, it)
	}
	return items, nil
}

// checkItemCodec holds the item codec to refGetItems on the item vector
// at the start of b: ReadItems accepts exactly what the reference accepts,
// the reader reads the same items, leaves the decoder where the reference
// does, and the writer re-encodes them to the same bytes.
func checkItemCodec(t *testing.T, b []byte) {
	t.Helper()
	rd := xdr.NewDecoder(b)
	ref, rerr := refGetItems(rd)
	d := xdr.NewDecoder(b)
	r, err := ReadItems(d)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("ReadItems error %v, reference parser %v", err, rerr)
	}
	if err != nil {
		return
	}
	if d.Offset() != rd.Offset() {
		t.Fatalf("ReadItems ends the vector at %d, reference parser at %d", d.Offset(), rd.Offset())
	}
	var e xdr.Encoder
	w := BeginItems(&e)
	for i := 0; r.Len() > 0; i++ {
		it, err := r.Next()
		if err != nil {
			t.Fatalf("item %d of a checked vector: %v", i, err)
		}
		if want := ref[i]; it.LP != want.LP || it.Dirty != want.Dirty || it.Delta != want.Delta ||
			it.Current != want.Current || it.BaseVer != want.BaseVer || !bytes.Equal(it.Bytes, want.Bytes) {
			t.Fatalf("item %d reads %+v, reference %+v", i, it, want)
		}
		w.Put(it)
	}
	w.End()
	if !bytes.Equal(e.Bytes(), b[:d.Offset()]) {
		t.Fatalf("the writer re-encodes the vector as\n%x\nnot as it arrived\n%x", e.Bytes(), b[:d.Offset()])
	}
}

// itemSeeds adds to f item vectors the codec must refuse: an unknown flag,
// a current item with bytes or with another flag, a count over the cap and
// a count over the bytes remaining.
func itemSeeds(f *testing.F, prefix []byte) {
	lp := LongPtr{Space: 1, Addr: 0x10000, Type: 1}
	unknown := (&ItemsPayload{Items: []DataItem{{LP: lp, Bytes: []byte{1, 2, 3, 4}}}}).Encode()
	unknown[4+EncodedLongPtrSize+3] = 0x40
	for _, bad := range [][]byte{
		unknown,
		(&ItemsPayload{Items: []DataItem{{LP: lp, Current: true, Bytes: []byte{1, 2, 3, 4}}}}).Encode(),
		(&ItemsPayload{Items: []DataItem{{LP: lp, Current: true, Dirty: true}}}).Encode(),
		{0, 0x40, 0, 1},
		{0, 0, 0, 2, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := ReadItems(xdr.NewDecoder(bad)); err == nil {
			f.Fatalf("ReadItems admitted malformed vector %x", bad)
		}
		f.Add(append(slices.Clone(prefix), bad...))
	}
}

func FuzzCallPayloadDecode(f *testing.F) {
	f.Add(fuzzMessage().Payload)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	itemSeeds(f, []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The item vector follows the arguments.
		d := xdr.NewDecoder(data)
		if nw, err := d.Uint32(); err == nil {
			n, err := boundCount(d, nw, 12, "arg")
			for i := 0; i < n && err == nil; i++ {
				_, err = getArg(d)
			}
			if err == nil {
				checkItemCodec(t, data[d.Offset():])
			}
		}
		p, err := DecodeCallPayload(data)
		if err != nil {
			return
		}
		enc := p.Encode()
		p2, err := DecodeCallPayload(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(p2.Args) != len(p.Args) || len(p2.Items) != len(p.Items) || len(p2.Parts) != len(p.Parts) {
			t.Fatalf("round trip changed shape: %+v vs %+v", p, p2)
		}
	})
}

func FuzzFetchPayloadDecode(f *testing.F) {
	p := FetchPayload{
		Wants:  []LongPtr{{Space: 2, Addr: 0x10000, Type: 1}, {Space: 2, Addr: 0x10020, Type: 1}},
		Budget: 4096,
	}
	f.Add(p.Encode(), int64(0))
	spec := p
	spec.Speculative = true
	f.Add(spec.Encode(), int64(1))
	hashed := FetchPayload{Wants: p.Wants, Sums: []uint64{0xdeadbeefcafef00d, 1}}
	f.Add(hashed.Encode(), int64(2))
	// Must be rejected: a hashed want vector one sum short, a hashed
	// request with nothing to hash, and a flags word with a count in it.
	short := hashed.Encode()
	short = short[:len(short)-8]
	noWants := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0}
	counted := p.Encode()
	counted[len(counted)-1] = 1
	for _, bad := range [][]byte{short, noWants, counted} {
		if _, err := DecodeFetchPayload(bad); err == nil {
			f.Fatalf("decoder admitted malformed hashed fetch %x", bad)
		}
		f.Add(bad, int64(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		q, err := DecodeFetchPayload(data)
		// Decoding into reused vectors — dirty, of any capacity — must
		// give what the allocating decode gives, error included, and an
		// unhashed payload must leave the sums vector alone.
		rng := rand.New(rand.NewSource(seed))
		wants := make([]LongPtr, 8+rng.Intn(9))
		for i := range wants {
			wants[i] = LongPtr{Space: rng.Uint32(), Addr: vmem.VAddr(rng.Uint32()), Type: types.ID(rng.Uint32())}
		}
		sums := make([]uint64, 8+rng.Intn(9))
		for i := range sums {
			sums[i] = rng.Uint64()
		}
		before := slices.Clone(sums)
		r, rerr := DecodeFetchPayloadInto(data, wants[:rng.Intn(9)], sums[:rng.Intn(9)])
		if (rerr == nil) != (err == nil) || err != nil && rerr.Error() != err.Error() {
			t.Fatalf("decode into reused vectors: error %v, allocating decode %v", rerr, err)
		}
		if !slices.Equal(r.Wants, q.Wants) || !slices.Equal(r.Sums, q.Sums) || (r.Sums == nil) != (q.Sums == nil) ||
			r.Budget != q.Budget || r.Speculative != q.Speculative {
			t.Fatalf("decode into reused vectors: %+v, allocating decode %+v", r, q)
		}
		if q.Sums == nil && !slices.Equal(sums, before) {
			t.Fatalf("an unhashed decode wrote the sums vector")
		}
		if err != nil {
			return
		}
		if len(q.Sums) != 0 && len(q.Sums) != len(q.Wants) {
			t.Fatalf("decoder admitted %d sums for %d wants", len(q.Sums), len(q.Wants))
		}
		// A decoded payload must survive the encoder round trip with the
		// flag bits and sums intact.
		q2, err := DecodeFetchPayload(q.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q2.Speculative != q.Speculative || len(q2.Wants) != len(q.Wants) ||
			!slices.Equal(q2.Sums, q.Sums) {
			t.Fatalf("round trip changed shape: %+v vs %+v", q, q2)
		}
	})
}

func FuzzItemsPayloadDecode(f *testing.F) {
	lp := LongPtr{Space: 1, Addr: 0x10000, Type: 1}
	p := ItemsPayload{Items: []DataItem{
		{LP: lp, Dirty: true, Bytes: make([]byte, 40)},
		{LP: LongPtr{Space: 1, Addr: 0x10040, Type: 1}, Current: true},
	}}
	f.Add(p.Encode())
	// Must be rejected: a current item is bare — no bytes, no other flag.
	for _, it := range []DataItem{
		{LP: lp, Current: true, Bytes: []byte{1, 2, 3, 4}},
		{LP: lp, Current: true, Delta: true, BaseVer: 1},
	} {
		bad := (&ItemsPayload{Items: []DataItem{it}}).Encode()
		if _, err := DecodeItemsPayload(bad); err == nil {
			f.Fatalf("decoder admitted malformed current item %+v", it)
		}
		f.Add(bad)
	}
	itemSeeds(f, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkItemCodec(t, data)
		q, err := DecodeItemsPayload(data)
		if err != nil {
			return
		}
		for _, it := range q.Items {
			if it.Current && (it.Dirty || it.Delta || len(it.Bytes) != 0) {
				t.Fatalf("decoder admitted current item %+v", it)
			}
		}
	})
}

func FuzzFetchChunkDecode(f *testing.F) {
	fetch := FetchChunkPayload{
		XID:   9,
		Chunk: 2,
		Items: []DataItem{
			{LP: LongPtr{Space: 1, Addr: 0x10000, Type: 1}, Bytes: make([]byte, 40)},
			{LP: LongPtr{Space: 1, Addr: 0x10040, Type: 1}, Bytes: []byte{1, 2, 3}},
		},
	}
	f.Add(fetch.Encode())
	fin := fetch
	fin.Final = true
	f.Add(fin.Encode())
	// Must be rejected: flag bit 1 marked the retired validate stream form.
	retired := fin.Encode()
	retired[15] |= 2
	if _, err := DecodeFetchChunkPayload(retired); err == nil {
		f.Fatal("decoder admitted chunk flag bit 1")
	}
	f.Add(retired)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	itemSeeds(f, fetch.Encode()[:fetchChunkHeaderSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= fetchChunkHeaderSize {
			checkItemCodec(t, data[fetchChunkHeaderSize:])
		}
		q, err := DecodeFetchChunkPayload(data)
		if err != nil {
			// ChunkIsFinal must never panic, whatever the decoder thought.
			_ = ChunkIsFinal(data)
			return
		}
		// The dispatcher's cheap finality probe must agree with the full
		// decode on every frame the decoder accepts.
		if got := ChunkIsFinal(data); got != q.Final {
			t.Fatalf("ChunkIsFinal = %v, decoded Final = %v", got, q.Final)
		}
		enc := q.Encode()
		q2, err := DecodeFetchChunkPayload(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q2.XID != q.XID || q2.Chunk != q.Chunk || q2.Final != q.Final || len(q2.Items) != len(q.Items) {
			t.Fatalf("round trip changed shape: %+v vs %+v", q, q2)
		}
	})
}

func FuzzAllocPayloadDecode(f *testing.F) {
	ab := AllocBatchPayload{
		Allocs: []AllocReq{{Token: 0xF0000001, Type: 1}},
		Frees:  []LongPtr{{Space: 2, Addr: 0x10000, Type: 1}},
	}
	ar := AllocReplyPayload{Addrs: []vmem.VAddr{0x10040}}
	f.Add(ab.Encode())
	f.Add(ar.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeAllocBatchPayload(data)
		_, _ = DecodeAllocReplyPayload(data)
	})
}
