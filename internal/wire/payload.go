package wire

import (
	"encoding/binary"
	"fmt"
	"io"
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
	w := BeginItems(e)
	for _, it := range items {
		w.Put(it)
	}
	w.End()
}

// itemHeadSize is the encoded size of a full item's head: its long
// pointer, flags word and body length word. No item is shorter.
const itemHeadSize = EncodedLongPtrSize + 4 + 4

// ItemSize returns the encoded size of a full item whose body is n bytes.
func ItemSize(n int) int { return itemHeadSize + (n+3)&^3 }

// itemsEncodedSize returns the exact encoded size of an item vector, so
// payload encoders can size their buffer once instead of growing it —
// fetch replies carry most of the bytes the system ever moves.
func itemsEncodedSize(items []DataItem) int {
	n := 4
	for _, it := range items {
		n += ItemSize(len(it.Bytes))
		if it.Delta {
			n += 4
		}
	}
	return n
}

// getItems decodes a data-item vector into a fresh slice (nil when it is
// empty), checking each item as it reads it. The items' Bytes alias the
// decoder's buffer (ItemReader).
func getItems(d *xdr.Decoder) ([]DataItem, error) {
	r, err := openItems(d)
	if err != nil {
		return nil, err
	}
	rest := len(r.b)
	items, err := r.all()
	if err != nil {
		return nil, err
	}
	return items, d.Skip(rest - len(r.b))
}

// all reads the rest of r's items into a fresh slice (nil when none are
// left).
func (r *ItemReader) all() ([]DataItem, error) {
	if r.left == 0 {
		return nil, nil
	}
	items := make([]DataItem, 0, r.left)
	for r.left > 0 {
		it, err := r.Next()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	return items, nil
}

// ItemWriter appends one item vector to an encoder: BeginItems reserves
// the count word, Put, PutBody and BeginBody/EndBody append items, and
// End back-patches the count. Every item vector on the wire is written by
// it, so a frame can be built item by item with no vector of items in
// between.
type ItemWriter struct {
	e  *xdr.Encoder
	at int // offset of the count word
	n  int // items written
}

// BeginItems opens an item vector at the end of e.
func BeginItems(e *xdr.Encoder) ItemWriter {
	w := ItemWriter{e: e, at: e.Len()}
	e.PutUint32(0)
	return w
}

// Enc returns the encoder the vector is written to.
func (w *ItemWriter) Enc() *xdr.Encoder { return w.e }

// Len returns the number of items written.
func (w *ItemWriter) Len() int { return w.n }

// Put appends it.
func (w *ItemWriter) Put(it DataItem) {
	w.putHead(it)
	w.e.PutOpaque(it.Bytes)
	w.n++
}

// putHead appends what precedes an item's body: its long pointer, flags
// and, for a delta, base version.
func (w *ItemWriter) putHead(it DataItem) {
	putLongPtr(w.e, it.LP)
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
	w.e.PutUint32(flags)
	if it.Delta {
		w.e.PutUint32(it.BaseVer)
	}
}

// PutBody appends a full item carrying body and returns the offset it
// starts at and its body as it sits in the encoder.
func (w *ItemWriter) PutBody(lp LongPtr, dirty bool, body []byte) (at int, framed []byte) {
	at = w.e.Len()
	w.Put(DataItem{LP: lp, Dirty: dirty, Bytes: body})
	from := at + itemHeadSize
	return at, w.e.Bytes()[from : from+len(body) : from+len(body)]
}

// BeginBody appends the head of a full item for lp whose body the caller
// encodes onto the encoder next, and returns the offset the item starts
// at, which EndBody takes.
func (w *ItemWriter) BeginBody(lp LongPtr, dirty bool) (at int) {
	at = w.e.Len()
	w.putHead(DataItem{LP: lp, Dirty: dirty})
	w.e.PutUint32(0) // the body length, patched by EndBody
	return at
}

// EndBody closes the item BeginBody opened at offset at: it patches the
// body length, pads the body and returns it as it sits in the encoder.
func (w *ItemWriter) EndBody(at int) []byte {
	from := at + itemHeadSize
	n := w.e.Len() - from
	binary.BigEndian.PutUint32(w.e.Bytes()[from-4:], uint32(n))
	w.e.Align()
	w.n++
	return w.e.Bytes()[from : from+n : from+n]
}

// Unput removes the last item written, which starts at offset at, so it
// can be written again in another form.
func (w *ItemWriter) Unput(at int) {
	w.e.Truncate(at)
	w.n--
}

// End writes the item count into the vector's count word.
func (w *ItemWriter) End() {
	binary.BigEndian.PutUint32(w.e.Bytes()[w.at:], uint32(w.n))
}

// ItemMark is a position in an item vector being written (Mark).
type ItemMark struct{ off, n int }

// Mark returns the writer's position, for Since.
func (w *ItemWriter) Mark() ItemMark { return ItemMark{w.e.Len(), w.n} }

// Since returns a reader on the items written after m. It reads the
// encoder's buffer as it is now, so it stays valid however the encoder
// grows later, provided nothing before the writer's position is
// rewritten. Unlike a reader from ReadItems it does not know the union of
// its items' flags (Has).
func (w *ItemWriter) Since(m ItemMark) ItemReader {
	b := w.e.Bytes()
	return ItemReader{b: b[m.off:len(b):len(b)], left: w.n - m.n}
}

// ItemReader is a cursor over an encoded item vector as it sits in a
// frame: the one parser of items. Items are read in place — an item's
// Bytes alias the frame, so the frame must outlive every use of them, and
// readers treat them as read-only. A reader is a small value; a copy reads
// the same items again. It reads the XDR layout straight off the bytes: a
// received vector is read twice, once to check it and once to install it,
// and the two passes cost less than the one decode into a vector did.
type ItemReader struct {
	b     []byte // the items not read yet
	left  int    // how many
	flags uint32 // the union of the items' flags (ReadItems)
}

// ReadItems opens a reader on the item vector at d's position and moves d
// past it. It reads every item once to check it — the count against a
// hard cap and the bytes remaining, each item's flags and body — so a
// malformed vector is refused before any of its items is used.
func ReadItems(d *xdr.Decoder) (ItemReader, error) {
	r, err := openItems(d)
	if err != nil {
		return ItemReader{}, err
	}
	scan := r
	for scan.left > 0 {
		if _, err := scan.Next(); err != nil {
			return ItemReader{}, err
		}
	}
	r.flags = scan.flags
	return r, d.Skip(len(r.b) - len(scan.b))
}

// openItems reads the count of the item vector at d's position, against
// a hard cap and the bytes remaining, and opens a reader on its items,
// which are not checked yet.
func openItems(d *xdr.Decoder) (ItemReader, error) {
	nw, err := d.Uint32()
	if err != nil {
		return ItemReader{}, err
	}
	n, err := boundCount(d, nw, itemHeadSize, "item")
	return ItemReader{b: d.Rest(), left: n}, err
}

// Len returns the number of items not read yet.
func (r *ItemReader) Len() int { return r.left }

// Has reports whether any item of the vector carries flag. It is known
// for readers from ReadItems.
func (r *ItemReader) Has(flag uint32) bool { return r.flags&flag != 0 }

// Next reads the next item, or returns io.EOF past the last. An error
// ends the reader; on a reader from ReadItems the only error is io.EOF.
func (r *ItemReader) Next() (it DataItem, err error) {
	if r.left <= 0 {
		return it, io.EOF
	}
	r.left--
	b := r.b
	if len(b) < itemHeadSize {
		r.left = 0
		return it, xdr.ErrShortBuffer
	}
	be := binary.BigEndian
	it.LP = LongPtr{Space: be.Uint32(b), Addr: vmem.VAddr(be.Uint32(b[4:])), Type: types.ID(be.Uint32(b[8:]))}
	flags := be.Uint32(b[12:])
	switch {
	case flags&^itemFlagsMask != 0:
		err = fmt.Errorf("wire: unknown item flags %#x", flags)
	case flags&ItemCurrent != 0 && flags != ItemCurrent:
		err = fmt.Errorf("wire: current item with flags %#x", flags)
	}
	at := 16 // the body length word
	if flags&ItemDelta != 0 {
		if len(b) < itemHeadSize+4 {
			err = xdr.ErrShortBuffer
		} else {
			it.BaseVer, at = be.Uint32(b[16:]), 20
		}
	}
	if err != nil {
		r.left = 0
		return DataItem{}, err
	}
	n := uint64(be.Uint32(b[at:]))
	at += 4
	end := at + int((n+3)&^3)
	switch {
	case n > xdr.MaxLen:
		err = fmt.Errorf("wire: item body length %d out of range", n)
	case len(b) < end:
		err = xdr.ErrShortBuffer
	case flags == ItemCurrent && n != 0:
		err = fmt.Errorf("wire: current item carries %d bytes", n)
	}
	if err == nil && n&3 != 0 {
		for _, p := range b[at+int(n) : end] {
			if p != 0 {
				err = xdr.ErrPadding
			}
		}
	}
	if err != nil {
		r.left = 0
		return DataItem{}, err
	}
	it.Dirty = flags&ItemDirty != 0
	it.Delta = flags&ItemDelta != 0
	it.Current = flags&ItemCurrent != 0
	it.Bytes = b[at : at+int(n) : at+int(n)]
	r.b, r.flags = b[end:], r.flags|flags
	return it, nil
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
	e := xdr.NewEncoder(CallSize(p.Args, len(p.Parts)) + itemsEncodedSize(p.Items) - 4)
	PutArgs(e, p.Args)
	putItems(e, p.Items)
	PutParts(e, p.Parts)
	return e.Bytes()
}

// PutArgs appends the head of a Call/Return body, its argument vector, to
// e. The item vector (BeginItems) and the participant set (PutParts)
// follow.
func PutArgs(e *xdr.Encoder, args []Arg) {
	e.PutUint32(uint32(len(args)))
	for _, a := range args {
		putArg(e, a)
	}
}

// PutParts appends the tail of a Call/Return body, its participant set,
// to e.
func PutParts(e *xdr.Encoder, parts []uint32) {
	e.PutUint32(uint32(len(parts)))
	for _, part := range parts {
		e.PutUint32(part)
	}
}

// CallSize returns the encoded size of a Call/Return body with args,
// nparts participants and no items; each item adds its own size (ItemSize
// for a full one).
func CallSize(args []Arg, nparts int) int {
	n := 4 + 4 + 4 + 4*nparts
	for _, a := range args {
		switch a.Kind {
		case types.Ptr:
			n += 4 + EncodedLongPtrSize
		case types.Func:
			n += 4 + 4 + 4 + (len(a.FnName)+3)&^3
		default:
			n += 4 + 8
		}
	}
	return n
}

// CallFrame is a Call/Return body read in place: its argument vector and
// participant set decoded, and a reader on the item vector between them.
type CallFrame struct {
	Args  []Arg
	Items ItemReader
	Parts []uint32
}

// ReadCallPayload parses a Call/Return body, checking its items but
// leaving them in b.
func ReadCallPayload(b []byte) (CallFrame, error) {
	d := xdr.NewDecoder(b)
	var f CallFrame
	nw, err := d.Uint32()
	if err != nil {
		return f, err
	}
	n, err := boundCount(d, nw, 12, "arg")
	if err != nil {
		return f, err
	}
	f.Args = make([]Arg, 0, n)
	for i := 0; i < n; i++ {
		a, err := getArg(d)
		if err != nil {
			return f, err
		}
		f.Args = append(f.Args, a)
	}
	if f.Items, err = ReadItems(d); err != nil {
		return f, err
	}
	npw, err := d.Uint32()
	if err != nil {
		return f, err
	}
	np, err := boundCount(d, npw, 4, "participant")
	if err != nil {
		return f, err
	}
	f.Parts = make([]uint32, 0, np)
	for i := 0; i < np; i++ {
		v, err := d.Uint32()
		if err != nil {
			return f, err
		}
		f.Parts = append(f.Parts, v)
	}
	return f, nil
}

// DecodeCallPayload parses a Call/Return body.
func DecodeCallPayload(b []byte) (CallPayload, error) {
	f, err := ReadCallPayload(b)
	p := CallPayload{Args: f.Args, Parts: f.Parts}
	if err == nil {
		p.Items, err = f.Items.all()
	}
	return p, err
}

// FetchSpeculative is the flag bit marking a speculative (prefetch) FETCH.
// It rides in the top bit of the flags word that follows the budget. The
// flag is accounting only — servers answer speculative fetches exactly
// like demand fetches.
const FetchSpeculative uint32 = 1 << 31

// FetchHashed is the flag bit, next to FetchSpeculative in the flags word,
// marking a hashed FETCH: one 64-bit content hash per want follows the
// flags word.
const FetchHashed uint32 = 1 << 30

// FetchPayload requests the data for a set of long pointers — the
// faulting page's entries from one origin, which a hashed request follows
// with stale entries of other pages — plus an eager closure budget in
// bytes (§3.3) that the server's traversal from the wants may spend.
// Speculative marks a prefetch issued ahead of any fault (carried as
// FetchSpeculative in the flags word).
//
// Sums, when non-empty, makes the request hashed (FetchHashed): Sums[i] is
// the Sum64 of the requester's demoted encoding of Wants[i]. The origin
// answers a hashed want with an ItemCurrent item when its current
// encoding hashes the same, with the full body otherwise, and expands
// none of them.
type FetchPayload struct {
	Wants       []LongPtr
	Budget      uint32
	Speculative bool
	Sums        []uint64
}

// Encode returns the canonical encoding of p.
func (p *FetchPayload) Encode() []byte {
	e := xdr.NewEncoder(12 + EncodedLongPtrSize*len(p.Wants) + 8*len(p.Sums))
	p.EncodeTo(e)
	return e.Bytes()
}

// EncodeTo appends the canonical encoding of p to e: a requester encodes
// straight into a pooled frame buffer (NewChunkBuf).
func (p *FetchPayload) EncodeTo(e *xdr.Encoder) {
	e.Grow(12 + EncodedLongPtrSize*len(p.Wants) + 8*len(p.Sums))
	e.PutUint32(uint32(len(p.Wants)))
	for _, lp := range p.Wants {
		putLongPtr(e, lp)
	}
	e.PutUint32(p.Budget)
	var flags uint32
	if p.Speculative {
		flags |= FetchSpeculative
	}
	if len(p.Sums) > 0 {
		flags |= FetchHashed
	}
	e.PutUint32(flags)
	for _, s := range p.Sums {
		e.PutUint64(s)
	}
}

// FetchWants reads the want vector of an encoded Fetch body in place,
// with no copy: a requester reads back the wants of the request it still
// holds.
type FetchWants struct {
	b []byte // the encoded wants, EncodedLongPtrSize bytes each
}

// ReadFetchWants opens a reader on the wants of the Fetch body b.
func ReadFetchWants(b []byte) (FetchWants, error) {
	d := xdr.NewDecoder(b)
	nw, err := d.Uint32()
	if err != nil {
		return FetchWants{}, err
	}
	n, err := boundCount(d, nw, EncodedLongPtrSize, "want")
	if err != nil {
		return FetchWants{}, err
	}
	return FetchWants{b: b[4 : 4+n*EncodedLongPtrSize]}, nil
}

// Len returns the number of wants.
func (w FetchWants) Len() int { return len(w.b) / EncodedLongPtrSize }

// At returns want i.
func (w FetchWants) At(i int) LongPtr {
	b := w.b[i*EncodedLongPtrSize:]
	be := binary.BigEndian
	return LongPtr{Space: be.Uint32(b), Addr: vmem.VAddr(be.Uint32(b[4:])), Type: types.ID(be.Uint32(b[8:]))}
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
	flags, err := d.Uint32()
	if err != nil {
		return p, err
	}
	if flags&^(FetchSpeculative|FetchHashed) != 0 {
		return p, fmt.Errorf("wire: fetch flags %#x set unknown bits", flags)
	}
	p.Speculative = flags&FetchSpeculative != 0
	hashed := flags&FetchHashed != 0
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
	items, err := getItems(xdr.NewDecoder(b))
	return ItemsPayload{Items: items}, err
}

// ReadItemsPayload parses a FetchReply/WriteBack body, checking its items
// but leaving them in b.
func ReadItemsPayload(b []byte) (ItemReader, error) {
	return ReadItems(xdr.NewDecoder(b))
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
// ItemReader).
func DecodeFetchChunkPayload(b []byte) (FetchChunkPayload, error) {
	p, r, err := ReadFetchChunk(b)
	if err == nil {
		p.Items, err = r.all()
	}
	return p, err
}

// ReadFetchChunk parses a chunk body: its header, with Items left nil,
// and a reader on its items, checked but left in b. The caller installs
// the chunk synchronously and releases the backing frame buffer
// afterwards.
func ReadFetchChunk(b []byte) (FetchChunkPayload, ItemReader, error) {
	d := xdr.NewDecoder(b)
	p, err := decodeFetchChunkHeader(d)
	if err != nil {
		return p, ItemReader{}, err
	}
	r, err := ReadItems(d)
	return p, r, err
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
