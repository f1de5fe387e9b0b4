package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// Binary codec shared by the WAL and snapshot files. Values are encoded as
// a one-byte tag followed by a fixed or length-prefixed payload. All
// integers are unsigned varints unless noted.

const (
	tagNull  byte = 0
	tagInt   byte = 1
	tagFloat byte = 2
	tagStr   byte = 3
	tagBool  byte = 4
	tagTime  byte = 5
	tagBytes byte = 6
)

type encoder struct {
	w   encodeWriter
	err error
	buf [binary.MaxVarintLen64]byte
}

// encodeWriter is what the encoder writes through: an in-memory buffer
// (redo records) or a bufio.Writer (snapshot files) as they are, anything
// else behind a bufio.Writer of its own.
type encodeWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

func newEncoder(w io.Writer) *encoder {
	if ew, ok := w.(encodeWriter); ok {
		return &encoder{w: ew}
	}
	return &encoder{w: bufio.NewWriter(w)}
}

func (e *encoder) flush() error {
	if e.err != nil {
		return e.err
	}
	if bw, ok := e.w.(*bufio.Writer); ok {
		return bw.Flush()
	}
	return nil
}

func (e *encoder) byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

func (e *encoder) uvarint(u uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], u)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) varint(i int64) {
	if e.err != nil {
		return
	}
	n := binary.PutVarint(e.buf[:], i)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) value(v Value) {
	switch x := Normalize(v).(type) {
	case nil:
		e.byte(tagNull)
	case int64:
		e.byte(tagInt)
		e.varint(x)
	case float64:
		e.byte(tagFloat)
		e.uvarint(math.Float64bits(x))
	case string:
		e.byte(tagStr)
		e.str(x)
	case bool:
		e.byte(tagBool)
		if x {
			e.byte(1)
		} else {
			e.byte(0)
		}
	case time.Time:
		e.byte(tagTime)
		e.varint(x.UnixMicro())
	case []byte:
		e.byte(tagBytes)
		e.bytes(x)
	default:
		if e.err == nil {
			e.err = fmt.Errorf("storage: cannot encode value of type %T", v)
		}
	}
}

func (e *encoder) row(r Row) {
	e.uvarint(uint64(len(r)))
	for _, v := range r {
		e.value(v)
	}
}

func (e *encoder) schema(s *Schema) {
	e.str(s.Name)
	e.uvarint(uint64(len(s.Columns)))
	for _, c := range s.Columns {
		e.str(c.Name)
		e.byte(byte(c.Type))
		if c.NotNull {
			e.byte(1)
		} else {
			e.byte(0)
		}
		e.value(c.Default)
	}
	e.uvarint(uint64(len(s.PrimaryKey)))
	for _, pk := range s.PrimaryKey {
		e.str(pk)
	}
}

// decoder reads an in-memory image: a WAL or shipped payload, or a
// snapshot body.
type decoder struct {
	r   *bytes.Reader
	err error
}

func newDecoder(image []byte) *decoder {
	return &decoder{r: bytes.NewReader(image)}
}

func (d *decoder) fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.fail(err)
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, err := binary.ReadUvarint(d.r)
	d.fail(err)
	return u
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	i, err := binary.ReadVarint(d.r)
	d.fail(err)
	return i
}

// maxBlob bounds a WAL frame's length prefix so a corrupt file cannot
// trigger a huge allocation.
const maxBlob = 1 << 30

// length reads a prefix that counts bytes or elements still to come.
// Every element takes at least one byte, so a count larger than what is
// left of the image is corrupt, and is rejected before anything is
// allocated for it.
func (d *decoder) length() uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.r.Len()) {
		d.fail(fmt.Errorf("storage: corrupt length %d, %d bytes left", n, d.r.Len()))
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *decoder) blob() []byte {
	n := d.length()
	if d.err != nil {
		return nil
	}
	b := make([]byte, n)
	_, err := io.ReadFull(d.r, b)
	d.fail(err)
	return b
}

func (d *decoder) str() string { return string(d.blob()) }

func (d *decoder) value() Value {
	switch tag := d.byte(); tag {
	case tagNull:
		return nil
	case tagInt:
		return d.varint()
	case tagFloat:
		return math.Float64frombits(d.uvarint())
	case tagStr:
		return d.str()
	case tagBool:
		return d.byte() == 1
	case tagTime:
		return time.UnixMicro(d.varint()).UTC()
	case tagBytes:
		return d.blob()
	default:
		d.fail(fmt.Errorf("storage: corrupt value tag %d", tag))
		return nil
	}
}

func (d *decoder) row() Row {
	n := d.length()
	if d.err != nil {
		return nil
	}
	r := make(Row, n)
	for i := range r {
		r[i] = d.value()
	}
	return r
}

func (d *decoder) schema() *Schema {
	s := &Schema{Name: d.str()}
	ncols := d.length()
	if d.err != nil {
		return nil
	}
	s.Columns = make([]Column, ncols)
	for i := range s.Columns {
		s.Columns[i].Name = d.str()
		s.Columns[i].Type = Type(d.byte())
		s.Columns[i].NotNull = d.byte() == 1
		s.Columns[i].Default = d.value()
	}
	npk := d.uvarint()
	if d.err != nil || npk > ncols {
		d.fail(fmt.Errorf("storage: corrupt schema pk"))
		return nil
	}
	s.PrimaryKey = make([]string, npk)
	for i := range s.PrimaryKey {
		s.PrimaryKey[i] = d.str()
	}
	return s
}

func encodeIndexInfo(enc *encoder, info IndexInfo) {
	enc.str(info.Table)
	enc.str(info.Name)
	enc.uvarint(uint64(len(info.Columns)))
	for _, c := range info.Columns {
		enc.str(c)
	}
	if info.Unique {
		enc.byte(1)
	} else {
		enc.byte(0)
	}
	enc.byte(byte(info.Kind))
}

func decodeIndexInfo(dec *decoder) IndexInfo {
	var info IndexInfo
	info.Table = dec.str()
	info.Name = dec.str()
	info.Columns = make([]string, dec.length())
	for i := range info.Columns {
		info.Columns[i] = dec.str()
	}
	info.Unique = dec.byte() == 1
	info.Kind = IndexKind(dec.byte())
	return info
}
