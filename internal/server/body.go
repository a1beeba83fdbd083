package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf8"

	"ccrp/internal/tracing"
)

// bodyBlock is the unit ReadBody stages a body in as it arrives.
const bodyBlock = 32 << 10

var bodyBlocks = sync.Pool{New: func() any { return new([bodyBlock]byte) }}

// ReadBody reads r's body whole into one buffer of exactly its length,
// refusing a body over MaxBodyBytes with an *http.MaxBytesError, which
// WriteError answers with 413 payload_too_large. A declared
// Content-Length is a claim, not a size: the bytes are staged in pooled
// blocks as they arrive and copied once into a buffer of what arrived,
// so a client that declares more than it sends costs only what it
// sends. ccrpd reads every request body through it, and so does
// cluster.Router in front of a fleet.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	var held [8]*[bodyBlock]byte
	blocks := held[:0]
	defer func() {
		for _, b := range blocks {
			bodyBlocks.Put(b)
		}
	}()
	n := 0
	for {
		if n == len(blocks)*bodyBlock {
			blocks = append(blocks, bodyBlocks.Get().(*[bodyBlock]byte))
		}
		m, err := body.Read(blocks[len(blocks)-1][n%bodyBlock:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	out := make([]byte, n)
	for i, b := range blocks {
		copy(out[i*bodyBlock:], b[:])
	}
	return out, nil
}

// decodeRequest reads r's body once and decodes it into v, mapping
// failures onto the error taxonomy, under a decode_body span so the
// cost is attributable per request. The body must be one JSON value, and
// a key that names no field of the struct it would fill, at any depth,
// is refused as json.Decoder.DisallowUnknownFields refuses it. v's
// base64 fields keep the body's own bytes (b64Field), and every slice is
// allocated once at its element count; an array longer than its field's
// max tag allows is refused before anything is allocated for it.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) error {
	sp := tracing.FromContext(r.Context()).Child(StageDecodeBody)
	defer sp.End()
	body, err := ReadBody(w, r)
	switch err.(type) {
	case nil:
		err = unmarshalRequest(body, v)
	case *http.MaxBytesError:
		// Up bare: asAPIError maps it to 413.
	default:
		err = errBadRequest("reading request body: %v", err)
	}
	if err != nil {
		sp.SetError(err)
	}
	return err
}

// unmarshalRequest decodes body into v: json.Unmarshal fills v, after a
// walk of the same bytes beside v's type has sized v's slices and found
// any unknown key or over-long array.
func unmarshalRequest(body []byte, v any) error {
	if len(bytes.Trim(body, " \t\r\n")) == 0 {
		return errBadRequest("empty request body")
	}
	rv := reflect.ValueOf(v).Elem()
	wk := walker{data: body}
	wk.value(shapeOf(rv.Type()), rv)
	if wk.err != nil {
		return wk.err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return errBadRequest("invalid JSON body: %v", err)
	}
	if wk.unknown != nil {
		return errBadRequest("invalid JSON body: json: unknown field %q", wk.unknown)
	}
	return nil
}

// b64Field is a base64 request field as the body spells it: the string's
// bytes, a slice of the request body itself unless the string holds an
// escape. It is decoded where the handler uses it (decode), so a bad
// item of a :batch request fails alone.
type b64Field []byte

// UnmarshalJSON keeps the string's bytes; null leaves the field as it
// was, and any other value is the error a string field reports.
func (f *b64Field) UnmarshalJSON(data []byte) error {
	if data[0] != '"' {
		var s string
		return json.Unmarshal(data, &s)
	}
	s, err := unquote(data)
	*f = s
	return err
}

// MarshalJSON writes the field as the string it holds.
func (f b64Field) MarshalJSON() ([]byte, error) { return json.Marshal(string(f)) }

// decode returns the bytes f encodes, in a slice of exactly their length.
func (f b64Field) decode() ([]byte, error) {
	n := base64.StdEncoding.DecodedLen(len(f))
	// Each '=' of padding shortens a well-formed string's last quantum by
	// a byte. The decoder skips line breaks, so a string holding one
	// keeps the longer bound, as does one of a length the decoder
	// refuses, which it may have written part of before it does.
	if len(f)%4 == 0 && bytes.IndexByte(f, '\n') < 0 && bytes.IndexByte(f, '\r') < 0 {
		n -= min(2, len(f)-len(bytes.TrimRight(f, "=")))
	}
	out := make([]byte, n)
	m, err := base64.StdEncoding.Decode(out, f)
	return out[:m], err
}

// unquote returns the contents of the JSON string token raw as
// encoding/json unquotes them: a slice of raw itself when the string has
// no escape and is valid UTF-8, a new copy otherwise.
func unquote(raw []byte) ([]byte, error) {
	s := raw[1 : len(raw)-1]
	if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return s, nil
	}
	var str string
	err := json.Unmarshal(raw, &str)
	return []byte(str), err
}

// shape is what the walker needs of a Go type a JSON value decodes
// into. Built once per type (shapeOf) from the rules encoding/json
// follows.
type shape struct {
	kind   shapeKind
	typ    reflect.Type
	fields []shapeField // struct: its JSON fields, in order
	elem   *shape       // slice, pointer: the element's shape
	// sizes reports that walking a value of this shape allocates
	// something in it: it is a slice, or a struct holding one.
	sizes bool
	// max is the most elements a slice field's array may hold, from the
	// field's max tag; 0 allows any number.
	max int
}

type shapeKind uint8

const (
	shapeOther   shapeKind = iota // scalars, json.Unmarshalers, interfaces: stepped over
	shapeStruct                   // an object's keys are checked
	shapeSlice                    // an array is counted
	shapePointer                  // the value is walked as its element
)

type shapeField struct {
	name  []byte
	index int
	shape *shape
}

var (
	shapes          sync.Map // reflect.Type → *shape
	unmarshalerType = reflect.TypeFor[json.Unmarshaler]()
)

func shapeOf(t reflect.Type) *shape {
	if s, ok := shapes.Load(t); ok {
		return s.(*shape)
	}
	s, _ := shapes.LoadOrStore(t, buildShape(t))
	return s.(*shape)
}

// buildShape follows encoding/json: a type whose pointer is a
// json.Unmarshaler decodes itself, a struct field is named by its tag,
// "-" and unexported fields are ignored. A slice field's max tag bounds
// its array's length. The walker follows no embedded
// struct (whose fields encoding/json promotes), map or array, and no
// request type holds one, so meeting one is a bug.
func buildShape(t reflect.Type) *shape {
	s := &shape{typ: t}
	switch {
	case reflect.PointerTo(t).Implements(unmarshalerType):
	case t.Kind() == reflect.Struct:
		s.kind = shapeStruct
		for i := range t.NumField() {
			f := t.Field(i)
			if f.Anonymous {
				panic("server: request type " + t.String() + " embeds " + f.Name)
			}
			name, _, _ := bytes.Cut([]byte(f.Tag.Get("json")), []byte(","))
			if !f.IsExported() || string(name) == "-" {
				continue
			}
			if len(name) == 0 {
				name = []byte(f.Name)
			}
			fs := buildShape(f.Type)
			if m := f.Tag.Get("max"); m != "" {
				n, err := strconv.Atoi(m)
				if err != nil || n < 1 || fs.kind != shapeSlice {
					panic("server: bad max tag on " + t.String() + "." + f.Name)
				}
				fs.max = n
			}
			s.fields = append(s.fields, shapeField{name: name, index: i, shape: fs})
			s.sizes = s.sizes || fs.sizes
		}
	case t.Kind() == reflect.Slice:
		s.kind, s.elem, s.sizes = shapeSlice, buildShape(t.Elem()), true
	case t.Kind() == reflect.Pointer:
		s.kind, s.elem = shapePointer, buildShape(t.Elem())
	case t.Kind() == reflect.Map || t.Kind() == reflect.Array:
		panic("server: request type holds " + t.String())
	}
	return s
}

// field returns the field key names: an exact match first, then one
// equal under case folding, as encoding/json matches keys.
func (s *shape) field(key []byte) *shapeField {
	for i := range s.fields {
		if string(key) == string(s.fields[i].name) {
			return &s.fields[i]
		}
	}
	for i := range s.fields {
		if bytes.EqualFold(key, s.fields[i].name) {
			return &s.fields[i]
		}
	}
	return nil
}

// walker reads a request body beside the Go value it will be decoded
// into, before json.Unmarshal fills it. It records the first key that
// names no field of its struct, and gives each slice its array's
// element count, so that Unmarshal fills it in place. It does not
// validate: at bytes that are not JSON it stops (a method returns
// false), and Unmarshal reports them. It stops too at an array longer
// than its shape's max, with err set. A zero reflect.Value walks by
// type alone, as under a pointer, which Unmarshal allocates itself.
type walker struct {
	data    []byte
	pos     int
	unknown []byte // the first unknown key, unquoted
	err     error  // the over-long array that stopped the walk
}

// skipped shapes a value the walker steps over, such as an unknown key's.
var skipped shape

func (w *walker) space() {
	for w.pos < len(w.data) {
		switch w.data[w.pos] {
		case ' ', '\t', '\r', '\n':
			w.pos++
		default:
			return
		}
	}
}

// value walks the value at w.pos, which v (when valid) will hold.
func (w *walker) value(s *shape, v reflect.Value) bool {
	w.space()
	if w.pos == len(w.data) {
		return false
	}
	switch c := w.data[w.pos]; {
	case c == '{' && s.kind == shapeStruct:
		return w.object(s, v)
	case c == '[' && s.kind == shapeSlice:
		return w.array(s, v)
	case c != 'n' && s.kind == shapePointer:
		return w.value(s.elem, reflect.Value{})
	}
	return w.skip()
}

func (w *walker) object(s *shape, v reflect.Value) bool {
	w.pos++ // {
	if w.space(); w.pos < len(w.data) && w.data[w.pos] == '}' {
		w.pos++
		return true
	}
	for {
		w.space()
		start := w.pos
		if w.pos == len(w.data) || w.data[w.pos] != '"' || !w.skipString() {
			return false
		}
		key, err := unquote(w.data[start:w.pos])
		if err != nil || w.delim() != ':' {
			return false
		}
		fs, fv := &skipped, reflect.Value{}
		if f := s.field(key); f != nil {
			fs = f.shape
			if v.IsValid() {
				fv = v.Field(f.index)
			}
		} else if w.unknown == nil {
			w.unknown = key
		}
		if !w.value(fs, fv) {
			return false
		}
		if d := w.delim(); d != ',' {
			return d == '}'
		}
	}
}

// array walks an array into a slice of its element count. When the
// elements size nothing themselves, the array is walked once and the
// slice made after, with room for them; otherwise it is counted first
// and each element walked in its place. An array over s.max makes
// nothing.
func (w *walker) array(s *shape, v reflect.Value) bool {
	start := w.pos
	n, ok := w.elements(s.elem, nil)
	if ok && s.max > 0 && n > s.max {
		w.err = errBadRequest("%d items exceed the %d-item limit", n, s.max)
		return false
	}
	switch {
	case !ok || !v.IsValid():
	case !s.elem.sizes:
		v.Set(reflect.MakeSlice(s.typ, 0, n))
	default:
		w.pos = start
		v.Set(reflect.MakeSlice(s.typ, n, n))
		_, ok = w.elements(s.elem, &v)
	}
	return ok
}

// elements walks the array at w.pos, each element as elem shapes it and
// into element i of *into when into is set, and counts them.
func (w *walker) elements(elem *shape, into *reflect.Value) (int, bool) {
	w.pos++ // [
	if w.space(); w.pos < len(w.data) && w.data[w.pos] == ']' {
		w.pos++
		return 0, true
	}
	for n := 0; ; {
		var ev reflect.Value
		if into != nil {
			if n == into.Len() {
				return n, false
			}
			ev = into.Index(n)
		}
		if !w.value(elem, ev) {
			return n, false
		}
		n++
		if d := w.delim(); d != ',' {
			return n, d == ']'
		}
	}
}

// delim steps over the byte that follows a key or a member, and returns
// it: a colon, a comma, or the byte that closes an object or array; 0 at
// the end of the body.
func (w *walker) delim() byte {
	if w.space(); w.pos == len(w.data) {
		return 0
	}
	w.pos++
	return w.data[w.pos-1]
}

// skip steps over one value without looking inside it.
func (w *walker) skip() bool {
	switch w.data[w.pos] {
	case '"':
		return w.skipString()
	case '{', '[':
		depth := 0
		for w.pos < len(w.data) {
			switch w.data[w.pos] {
			case '"':
				if !w.skipString() {
					return false
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					w.pos++
					return true
				}
			}
			w.pos++
		}
		return false
	}
	start := w.pos
	for w.pos < len(w.data) {
		switch w.data[w.pos] {
		case ',', '}', ']', ' ', '\t', '\r', '\n':
			return w.pos > start
		}
		w.pos++
	}
	return w.pos > start
}

// skipString steps over the string that opens at w.pos: to the first
// quote not escaped by an odd run of backslashes.
func (w *walker) skipString() bool {
	for i := w.pos + 1; ; i++ {
		j := bytes.IndexByte(w.data[i:], '"')
		if j < 0 {
			return false
		}
		i += j
		k := i
		for w.data[k-1] == '\\' {
			k--
		}
		if (i-k)%2 == 0 {
			w.pos = i + 1
			return true
		}
	}
}
