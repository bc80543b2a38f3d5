package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"smartrpc/internal/types"
	"smartrpc/internal/vmem"
	"smartrpc/internal/xdr"
)

// LongPtr is the paper's long-format pointer: it designates a datum
// anywhere in the distributed system. It is the wire identity of every
// transferred object.
type LongPtr struct {
	// Space is the address-space identifier of the datum's original
	// location.
	Space uint32
	// Addr is the datum's address, valid within Space.
	Addr vmem.VAddr
	// Type is the data-type specifier resolved through the type database.
	Type types.ID
}

// IsNull reports whether the long pointer is the distinguished null value.
func (lp LongPtr) IsNull() bool { return lp == LongPtr{} }

// String renders the long pointer for diagnostics.
func (lp LongPtr) String() string {
	return fmt.Sprintf("<%d:%#x:t%d>", lp.Space, uint32(lp.Addr), uint32(lp.Type))
}

// EncodedLongPtrSize is the canonical size of a long pointer (three words).
const EncodedLongPtrSize = 12

func putLongPtr(e *xdr.Encoder, lp LongPtr) {
	e.PutUint32(lp.Space)
	e.PutUint32(uint32(lp.Addr))
	e.PutUint32(uint32(lp.Type))
}

func getLongPtr(d *xdr.Decoder) (LongPtr, error) {
	sp, err := d.Uint32()
	if err != nil {
		return LongPtr{}, err
	}
	ad, err := d.Uint32()
	if err != nil {
		return LongPtr{}, err
	}
	ty, err := d.Uint32()
	if err != nil {
		return LongPtr{}, err
	}
	return LongPtr{Space: sp, Addr: vmem.VAddr(ad), Type: types.ID(ty)}, nil
}

// boundCount validates a decoded element count against a hard cap and
// against the bytes actually remaining in the buffer (minSize is the
// smallest possible encoding of one element). Without the second check a
// corrupt or hostile count in a few-byte input could force a multi-
// hundred-megabyte preallocation before the first element fails to parse.
func boundCount(d *xdr.Decoder, n uint32, minSize int, what string) (int, error) {
	if n > 1<<22 {
		return 0, fmt.Errorf("wire: %s count %d out of range", what, n)
	}
	if int(n) > d.Remaining()/minSize {
		return 0, fmt.Errorf("wire: %s count %d exceeds the %d bytes remaining", what, n, d.Remaining())
	}
	return int(n), nil
}

// Arg is one RPC argument or result: a scalar (canonical 64-bit
// representation plus its kind), a long pointer, or a remote function
// pointer (a capability naming a procedure in some address space).
type Arg struct {
	// Kind is the scalar kind, types.Ptr, or types.Func.
	Kind types.Kind
	// Word holds the scalar value's canonical bits.
	Word uint64
	// Ptr holds the long pointer for Kind == types.Ptr.
	Ptr LongPtr
	// FnSpace and FnName identify a remote function for Kind == types.Func.
	FnSpace uint32
	FnName  string
}

// ScalarArg builds a scalar argument.
func ScalarArg(kind types.Kind, word uint64) Arg {
	return Arg{Kind: kind, Word: word}
}

// PtrArg builds a pointer argument.
func PtrArg(lp LongPtr) Arg {
	return Arg{Kind: types.Ptr, Ptr: lp}
}

// FuncArg builds a remote function pointer argument.
func FuncArg(space uint32, name string) Arg {
	return Arg{Kind: types.Func, FnSpace: space, FnName: name}
}

func putArg(e *xdr.Encoder, a Arg) {
	e.PutUint32(uint32(a.Kind))
	switch a.Kind {
	case types.Ptr:
		putLongPtr(e, a.Ptr)
	case types.Func:
		e.PutUint32(a.FnSpace)
		e.PutString(a.FnName)
	default:
		e.PutUint64(a.Word)
	}
}

func getArg(d *xdr.Decoder) (Arg, error) {
	k, err := d.Uint32()
	if err != nil {
		return Arg{}, err
	}
	a := Arg{Kind: types.Kind(k)}
	if !a.Kind.Valid() {
		return Arg{}, fmt.Errorf("wire: invalid arg kind %d", k)
	}
	switch a.Kind {
	case types.Ptr:
		a.Ptr, err = getLongPtr(d)
		return a, err
	case types.Func:
		if a.FnSpace, err = d.Uint32(); err != nil {
			return a, err
		}
		a.FnName, err = d.String()
		return a, err
	default:
		a.Word, err = d.Uint64()
		return a, err
	}
}

// Item flag bits. The flags word occupies the position the dirty boolean
// held in earlier protocol revisions (XDR booleans are a full word), so a
// full-body item encodes byte-identically to the old format.
const (
	// ItemDirty marks an item carrying an unwritten modification.
	ItemDirty uint32 = 1 << 0
	// ItemDelta marks an item whose Bytes hold a byte-range diff against
	// the baseline the receiver recorded at crossing version BaseVer,
	// instead of a full canonical encoding (delta-shipping coherency).
	ItemDelta uint32 = 1 << 1
	// ItemCurrent answers a hashed FETCH want whose offered sum equals the
	// hash of the origin's current encoding: the requester's demoted copy
	// is current. It stands alone (no other flag) and carries no bytes.
	ItemCurrent uint32 = 1 << 2

	itemFlagsMask = ItemDirty | ItemDelta | ItemCurrent
)

// DataItem is one transferred object: its system-wide identity (a long
// pointer to the original location) and its value. Dirty propagates the
// modified bit with the data so that whichever space holds the object
// knows it must eventually be written back (§3.4).
//
// For a full item (Delta == false), Bytes is the object's canonical
// encoding. For a delta item, Bytes is an encoded run vector
// (internal/delta) to be patched onto the baseline both sides recorded
// for this datum at crossing version BaseVer; BaseVer is absent from the
// wire when Delta is false. A Current item (ItemCurrent) has no bytes.
type DataItem struct {
	LP      LongPtr
	Dirty   bool
	Delta   bool
	Current bool
	BaseVer uint32
	Bytes   []byte
}

func putItems(e *xdr.Encoder, items []DataItem) {
	e.PutUint32(uint32(len(items)))
	for _, it := range items {
		putLongPtr(e, it.LP)
		var flags uint32
		if it.Dirty {
			flags |= ItemDirty
		}
		if it.Delta {
			flags |= ItemDelta
		}
		if it.Current {
			flags |= ItemCurrent
		}
		e.PutUint32(flags)
		if it.Delta {
			e.PutUint32(it.BaseVer)
		}
		e.PutOpaque(it.Bytes)
	}
}

// itemsEncodedSize returns the exact encoded size of an item vector, so
// payload encoders can size their buffer once instead of growing it —
// fetch replies carry most of the bytes the system ever moves.
func itemsEncodedSize(items []DataItem) int {
	n := 4
	for _, it := range items {
		n += EncodedLongPtrSize + 4 + 4 + (len(it.Bytes)+3)&^3
		if it.Delta {
			n += 4
		}
	}
	return n
}

// getItems decodes a data-item vector, appending to buf[:0] (nil
// allocates a vector sized to the count). The items' Bytes alias the
// decoder's buffer rather than copying it: decoded items are installed (or
// written through) synchronously by the receiving runtime while the
// message payload is still live, so the copy per item would be pure
// allocation churn on the hottest path in the system. Callers must treat
// the bytes as read-only.
func getItems(d *xdr.Decoder, buf []DataItem) ([]DataItem, error) {
	nw, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	n, err := boundCount(d, nw, 20, "item")
	if err != nil {
		return nil, err
	}
	items := buf[:0]
	if cap(items) < n {
		items = make([]DataItem, 0, n)
	}
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
			return nil, fmt.Errorf("wire: unknown item flags %#x", flags)
		}
		it.Dirty = flags&ItemDirty != 0
		it.Delta = flags&ItemDelta != 0
		it.Current = flags&ItemCurrent != 0
		if it.Current && flags != ItemCurrent {
			return nil, fmt.Errorf("wire: current item with flags %#x", flags)
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
			return nil, fmt.Errorf("wire: current item carries %d bytes", len(it.Bytes))
		}
		items = append(items, it)
	}
	return items, nil
}

// CallPayload is the body of Call and Return messages: the argument (or
// result) vector, the piggybacked data items (the modified data set plus,
// for eager transfers, the closure of the pointer arguments), and the set
// of address spaces that have participated in the session so far (the
// ground runtime multicasts the end-of-session invalidation to them).
type CallPayload struct {
	Args  []Arg
	Items []DataItem
	Parts []uint32
}

// Encode returns the canonical encoding of p.
func (p *CallPayload) Encode() []byte {
	e := xdr.NewEncoder(16 + 32*len(p.Args) + itemsEncodedSize(p.Items) + 4*len(p.Parts))
	e.PutUint32(uint32(len(p.Args)))
	for _, a := range p.Args {
		putArg(e, a)
	}
	putItems(e, p.Items)
	e.PutUint32(uint32(len(p.Parts)))
	for _, part := range p.Parts {
		e.PutUint32(part)
	}
	return e.Bytes()
}

// DecodeCallPayload parses a Call/Return body.
func DecodeCallPayload(b []byte) (CallPayload, error) {
	d := xdr.NewDecoder(b)
	var p CallPayload
	nw, err := d.Uint32()
	if err != nil {
		return p, err
	}
	n, err := boundCount(d, nw, 12, "arg")
	if err != nil {
		return p, err
	}
	p.Args = make([]Arg, 0, n)
	for i := 0; i < n; i++ {
		a, err := getArg(d)
		if err != nil {
			return p, err
		}
		p.Args = append(p.Args, a)
	}
	if p.Items, err = getItems(d, nil); err != nil {
		return p, err
	}
	npw, err := d.Uint32()
	if err != nil {
		return p, err
	}
	np, err := boundCount(d, npw, 4, "participant")
	if err != nil {
		return p, err
	}
	p.Parts = make([]uint32, 0, np)
	for i := 0; i < np; i++ {
		v, err := d.Uint32()
		if err != nil {
			return p, err
		}
		p.Parts = append(p.Parts, v)
	}
	return p, nil
}

// FetchSpeculative is the flag bit marking a speculative (prefetch) FETCH.
// It rides in the top bit of the encoded Primary word: boundCount caps any
// want vector at 1<<22 entries, so a legitimate primary count can never
// reach bit 31, old-format frames never have it set, and setting it changes
// neither the frame size nor any demand-path byte. The flag is accounting
// only — servers answer speculative fetches exactly like demand fetches.
const FetchSpeculative uint32 = 1 << 31

// FetchHashed is the flag bit, next to FetchSpeculative in the Primary
// word, marking a hashed FETCH: one 64-bit content hash per want follows
// the Primary word. An unhashed FETCH never sets it and encodes exactly as
// before the flag existed.
const FetchHashed uint32 = 1 << 30

// FetchPayload requests the data for a set of long pointers — all the
// entries of the faulted page's data allocation table — plus an eager
// closure budget in bytes (§3.3). The first Primary wants are the faulting
// page's own entries and seed the server's closure traversal; any wants
// beyond them are batched ride-alongs (stranded entries of partially
// resident pages) that are served but not expanded, so they cannot starve
// the faulting page's frontier of closure budget. Primary == 0 means all
// wants are primary (the single-want protocol). Speculative marks a
// prefetch issued ahead of any fault (carried as FetchSpeculative in the
// Primary word).
//
// Sums, when non-empty, makes the request hashed (FetchHashed): Sums[i] is
// the Sum64 of the requester's demoted encoding of Wants[i]. The origin
// answers a hashed want with an ItemCurrent item when its current
// encoding hashes the same, with the full body otherwise, and expands
// none of them.
type FetchPayload struct {
	Wants       []LongPtr
	Budget      uint32
	Primary     uint32
	Speculative bool
	Sums        []uint64
}

// Encode returns the canonical encoding of p.
func (p *FetchPayload) Encode() []byte {
	e := xdr.NewEncoder(12 + EncodedLongPtrSize*len(p.Wants) + 8*len(p.Sums))
	e.PutUint32(uint32(len(p.Wants)))
	for _, lp := range p.Wants {
		putLongPtr(e, lp)
	}
	e.PutUint32(p.Budget)
	primary := p.Primary
	if p.Speculative {
		primary |= FetchSpeculative
	}
	if len(p.Sums) > 0 {
		primary |= FetchHashed
	}
	e.PutUint32(primary)
	for _, s := range p.Sums {
		e.PutUint64(s)
	}
	return e.Bytes()
}

// DecodeFetchPayload parses a Fetch body.
func DecodeFetchPayload(b []byte) (FetchPayload, error) {
	return DecodeFetchPayloadInto(b, nil, nil)
}

// DecodeFetchPayloadInto is DecodeFetchPayload decoding the wants into
// wants' storage and the sums into sums' (each appended to its [:0],
// grown if short), so an origin that serves one FETCH at a time reuses
// two vectors. An unhashed payload leaves Sums nil and sums untouched.
func DecodeFetchPayloadInto(b []byte, wants []LongPtr, sums []uint64) (FetchPayload, error) {
	d := xdr.NewDecoder(b)
	var p FetchPayload
	nw, err := d.Uint32()
	if err != nil {
		return p, err
	}
	n, err := boundCount(d, nw, EncodedLongPtrSize, "want")
	if err != nil {
		return p, err
	}
	p.Wants = slices.Grow(wants[:0], n)
	for i := 0; i < n; i++ {
		lp, err := getLongPtr(d)
		if err != nil {
			return p, err
		}
		p.Wants = append(p.Wants, lp)
	}
	if p.Budget, err = d.Uint32(); err != nil {
		return p, err
	}
	if p.Primary, err = d.Uint32(); err != nil {
		return p, err
	}
	p.Speculative = p.Primary&FetchSpeculative != 0
	hashed := p.Primary&FetchHashed != 0
	p.Primary &^= FetchSpeculative | FetchHashed
	if int(p.Primary) > n {
		return p, fmt.Errorf("wire: primary count %d exceeds want count %d", p.Primary, n)
	}
	if !hashed {
		return p, nil
	}
	if n == 0 {
		return p, fmt.Errorf("wire: hashed fetch with no wants")
	}
	p.Sums = slices.Grow(sums[:0], n)
	for i := 0; i < n; i++ {
		s, err := d.Uint64()
		if err != nil {
			return p, fmt.Errorf("wire: sum %d of %d: %w", i, n, err)
		}
		p.Sums = append(p.Sums, s)
	}
	return p, nil
}

// ItemsPayload is the body of FetchReply and WriteBack messages.
type ItemsPayload struct {
	Items []DataItem
}

// Encode returns the canonical encoding of p.
func (p *ItemsPayload) Encode() []byte {
	var e xdr.Encoder
	p.EncodeTo(&e)
	return e.Bytes()
}

// EncodeTo appends the canonical encoding of p to e, growing e once to
// fit (the serve path encodes a monolithic FETCH reply into a pooled frame
// buffer; see NewChunkBuf).
func (p *ItemsPayload) EncodeTo(e *xdr.Encoder) {
	e.Grow(itemsEncodedSize(p.Items))
	putItems(e, p.Items)
}

// DecodeItemsPayload parses a FetchReply/WriteBack body.
func DecodeItemsPayload(b []byte) (ItemsPayload, error) {
	return DecodeItemsPayloadInto(b, nil)
}

// DecodeItemsPayloadInto is DecodeItemsPayload decoding the items into
// buf's storage (appended to buf[:0], grown if short), so a receiver that
// installs one reply at a time reuses one vector. Item bytes alias b.
func DecodeItemsPayloadInto(b []byte, buf []DataItem) (ItemsPayload, error) {
	items, err := getItems(xdr.NewDecoder(b), buf)
	return ItemsPayload{Items: items}, err
}

// ChunkFinal marks the last chunk of a streamed reply: the one chunk flag
// bit (FetchChunkPayload.Final on the wire). Bit 1 marked the retired
// validate stream form; the decoder rejects it with every other bit.
const ChunkFinal uint32 = 1 << 0

// fetchChunkHeaderSize is the fixed prefix of a chunk payload: the
// 64-bit exchange id, the chunk ordinal, and the flags word.
const fetchChunkHeaderSize = 8 + 4 + 4

// FetchChunkPayload is the body of one KindFetchChunk frame: a bounded
// slice of a streamed Fetch reply. XID echoes the request's Seq (a
// cross-check against mis-stitched streams), Chunk is the 0-based ordinal
// within the stream, and Final marks the last chunk.
type FetchChunkPayload struct {
	XID   uint64
	Chunk uint32
	Final bool
	Items []DataItem
}

// EncodedSize returns the exact encoded size of p.
func (p *FetchChunkPayload) EncodedSize() int {
	return fetchChunkHeaderSize + itemsEncodedSize(p.Items)
}

// EncodeTo appends the canonical encoding of p to e (the streaming serve
// path encodes each chunk into a pooled buffer; see NewChunkBuf).
func (p *FetchChunkPayload) EncodeTo(e *xdr.Encoder) {
	e.Grow(p.EncodedSize())
	e.PutUint64(p.XID)
	e.PutUint32(p.Chunk)
	var flags uint32
	if p.Final {
		flags = ChunkFinal
	}
	e.PutUint32(flags)
	putItems(e, p.Items)
}

// Encode returns the canonical encoding of p.
func (p *FetchChunkPayload) Encode() []byte {
	var e xdr.Encoder
	p.EncodeTo(&e)
	return e.Bytes()
}

// DecodeFetchChunkPayload parses a chunk body. Item bytes alias b (see
// getItems): the caller installs the chunk synchronously and releases
// the backing frame buffer afterwards.
func DecodeFetchChunkPayload(b []byte) (FetchChunkPayload, error) {
	return DecodeFetchChunkPayloadInto(b, nil)
}

// DecodeFetchChunkPayloadInto is DecodeFetchChunkPayload decoding the
// items into buf's storage, as DecodeItemsPayloadInto does.
func DecodeFetchChunkPayloadInto(b []byte, buf []DataItem) (FetchChunkPayload, error) {
	d := xdr.NewDecoder(b)
	p, err := decodeFetchChunkHeader(d)
	if err != nil {
		return p, err
	}
	p.Items, err = getItems(d, buf)
	return p, err
}

// DecodeFetchChunkHeader parses only the fixed prefix of a chunk body —
// exchange id, ordinal, flags — leaving the item vector nil: what a
// receiver needs to place the chunk in its stream before anyone decodes
// the items.
func DecodeFetchChunkHeader(b []byte) (FetchChunkPayload, error) {
	return decodeFetchChunkHeader(xdr.NewDecoder(b))
}

func decodeFetchChunkHeader(d *xdr.Decoder) (FetchChunkPayload, error) {
	var p FetchChunkPayload
	var err error
	if p.XID, err = d.Uint64(); err != nil {
		return p, fmt.Errorf("wire: chunk xid: %w", err)
	}
	if p.Chunk, err = d.Uint32(); err != nil {
		return p, fmt.Errorf("wire: chunk ordinal: %w", err)
	}
	flags, err := d.Uint32()
	if err != nil {
		return p, fmt.Errorf("wire: chunk flags: %w", err)
	}
	if flags&^ChunkFinal != 0 {
		return p, fmt.Errorf("wire: unknown chunk flags %#x", flags)
	}
	p.Final = flags&ChunkFinal != 0
	return p, nil
}

// ChunkIsFinal reports whether a chunk payload carries the final flag,
// reading only the fixed header. Malformed headers report true: the
// dispatcher uses this to decide whether a chunk ends its stream, and a
// frame that cannot even parse must close the exchange so the decode
// error surfaces to the waiter instead of stalling it.
func ChunkIsFinal(b []byte) bool {
	if len(b) < fetchChunkHeaderSize {
		return true
	}
	flags := uint32(b[12])<<24 | uint32(b[13])<<16 | uint32(b[14])<<8 | uint32(b[15])
	return flags != 0 // ChunkFinal, or unknown bits
}

// AllocReq is one batched extended_malloc request. Token is the caller's
// provisional identifier for the new object; the reply maps it to the real
// address assigned by the origin space.
type AllocReq struct {
	Token uint64
	Type  types.ID
}

// AllocBatchPayload carries the batched remote allocation and release
// requests flushed when the thread of control leaves the space (§3.5).
type AllocBatchPayload struct {
	Allocs []AllocReq
	Frees  []LongPtr
}

// Encode returns the canonical encoding of p.
func (p *AllocBatchPayload) Encode() []byte {
	e := xdr.NewEncoder(16 + 12*len(p.Allocs) + EncodedLongPtrSize*len(p.Frees))
	e.PutUint32(uint32(len(p.Allocs)))
	for _, a := range p.Allocs {
		e.PutUint64(a.Token)
		e.PutUint32(uint32(a.Type))
	}
	e.PutUint32(uint32(len(p.Frees)))
	for _, lp := range p.Frees {
		putLongPtr(e, lp)
	}
	return e.Bytes()
}

// DecodeAllocBatchPayload parses an AllocBatch body.
func DecodeAllocBatchPayload(b []byte) (AllocBatchPayload, error) {
	d := xdr.NewDecoder(b)
	var p AllocBatchPayload
	nw, err := d.Uint32()
	if err != nil {
		return p, err
	}
	n, err := boundCount(d, nw, 12, "alloc")
	if err != nil {
		return p, err
	}
	p.Allocs = make([]AllocReq, 0, n)
	for i := 0; i < n; i++ {
		var a AllocReq
		if a.Token, err = d.Uint64(); err != nil {
			return p, err
		}
		t, err := d.Uint32()
		if err != nil {
			return p, err
		}
		a.Type = types.ID(t)
		p.Allocs = append(p.Allocs, a)
	}
	mw, err := d.Uint32()
	if err != nil {
		return p, err
	}
	m, err := boundCount(d, mw, EncodedLongPtrSize, "free")
	if err != nil {
		return p, err
	}
	p.Frees = make([]LongPtr, 0, m)
	for i := 0; i < m; i++ {
		lp, err := getLongPtr(d)
		if err != nil {
			return p, err
		}
		p.Frees = append(p.Frees, lp)
	}
	return p, nil
}

// Sum64 returns the XXH64 hash (seed 0) of b. A hashed FETCH uses it as
// the content identity of a canonical encoding: the client offers the hash
// of its demoted copy and the origin compares it against the hash of the
// current encoding, so an ItemCurrent token can never validate bytes that
// differ from the origin's, whatever replies were dropped before it.
//
// It is the one-shot form of the xxHash64 algorithm: four lanes over each
// 32-byte stripe, then the tail in 8-, 4- and 1-byte steps. The items it
// hashes are tens of bytes, and it reads them a word at a time where
// byte-at-a-time FNV-1a, which it replaced, multiplied once per byte.
func Sum64(b []byte) uint64 {
	n := uint64(len(b))
	var h uint64
	if len(b) >= 32 {
		// The lanes start at prime1+prime2, prime2, 0 and -prime1 (mod 2^64).
		v1, v2, v3, v4 := uint64(0x60ea27eeadc0b5d6), xxhPrime2, uint64(0), uint64(0x61c8864e7a143579)
		for ; len(b) >= 32; b = b[32:] {
			v1 = xxhRound(v1, binary.LittleEndian.Uint64(b))
			v2 = xxhRound(v2, binary.LittleEndian.Uint64(b[8:]))
			v3 = xxhRound(v3, binary.LittleEndian.Uint64(b[16:]))
			v4 = xxhRound(v4, binary.LittleEndian.Uint64(b[24:]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxhMerge(h, v1)
		h = xxhMerge(h, v2)
		h = xxhMerge(h, v3)
		h = xxhMerge(h, v4)
	} else {
		h = xxhPrime5
	}
	h += n
	for ; len(b) >= 8; b = b[8:] {
		h ^= xxhRound(0, binary.LittleEndian.Uint64(b))
		h = bits.RotateLeft64(h, 27)*xxhPrime1 + xxhPrime4
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * xxhPrime1
		h = bits.RotateLeft64(h, 23)*xxhPrime2 + xxhPrime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * xxhPrime5
		h = bits.RotateLeft64(h, 11) * xxhPrime1
	}
	h ^= h >> 33
	h *= xxhPrime2
	h ^= h >> 29
	h *= xxhPrime3
	h ^= h >> 32
	return h
}

// The XXH64 primes.
const (
	xxhPrime1 uint64 = 0x9e3779b185ebca87
	xxhPrime2 uint64 = 0xc2b2ae3d27d4eb4f
	xxhPrime3 uint64 = 0x165667b19e3779f9
	xxhPrime4 uint64 = 0x85ebca77c2b2ae63
	xxhPrime5 uint64 = 0x27d4eb2f165667c5
)

// xxhRound folds one 8-byte lane word into accumulator v.
func xxhRound(v, w uint64) uint64 {
	return bits.RotateLeft64(v+w*xxhPrime2, 31) * xxhPrime1
}

// xxhMerge folds a lane's final accumulator into the converged hash.
func xxhMerge(h, v uint64) uint64 {
	return (h^xxhRound(0, v))*xxhPrime1 + xxhPrime4
}

// AllocReplyPayload returns the real addresses for a batch of allocation
// requests, parallel to AllocBatchPayload.Allocs.
type AllocReplyPayload struct {
	Addrs []vmem.VAddr
}

// Encode returns the canonical encoding of p.
func (p *AllocReplyPayload) Encode() []byte {
	e := xdr.NewEncoder(4 + 4*len(p.Addrs))
	e.PutUint32(uint32(len(p.Addrs)))
	for _, a := range p.Addrs {
		e.PutUint32(uint32(a))
	}
	return e.Bytes()
}

// DecodeAllocReplyPayload parses an AllocReply body.
func DecodeAllocReplyPayload(b []byte) (AllocReplyPayload, error) {
	d := xdr.NewDecoder(b)
	var p AllocReplyPayload
	nw, err := d.Uint32()
	if err != nil {
		return p, err
	}
	n, err := boundCount(d, nw, 4, "addr")
	if err != nil {
		return p, err
	}
	p.Addrs = make([]vmem.VAddr, 0, n)
	for i := 0; i < n; i++ {
		a, err := d.Uint32()
		if err != nil {
			return p, err
		}
		p.Addrs = append(p.Addrs, vmem.VAddr(a))
	}
	return p, nil
}
