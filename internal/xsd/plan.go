package xsd

// Compiled type plans: one plan per Go type, two backends per direction
// (DESIGN.md §9).
//
// A reflect.Type is walked once into a plan — struct tags parsed, field
// indexes and sub-plans captured, as encoding/json does — and cached. A
// plan does not know what it reads or writes: encoding drives a sink (the
// pooled xmlutil.Writer, or a tree of Elements), decoding pulls from a
// reader (an xmlutil.Tokenizer over the message's bytes, or a tree); the
// four are in marshal.go. Both backends of a direction run the same walk,
// which is what lets FuzzDecodeBody hold them to each other.
//
// Decoding, from either reader (decodeFields): fields and parts are found
// by name in any order; unknown children are skipped, or collected as
// trees by a `,any` field; a scalar takes its first match, a slice every
// match; a child named {ns}name exactly beats one sharing only the local
// name *wherever it stands* — a local-only match is taken tentatively, and
// dropped with any error it raised at the first exact one; an absent
// optional is the zero value (an empty, non-nil slice for a slice); a
// string keeps its whitespace, other simple types are trimmed. Of two
// fields mapped to one element name the first has it. A slice's items (a
// `,any` field's trees) gather in pooled scratch, copied at the parent's
// end into one allocation of exactly their number: sized once.
//
// A field tagged `xml:"ns local"` is named in ns, whatever namespace the
// call is in, and so are its children; it matches exactly or not at all.
// A `,any` field holds the children no other field names, written as they
// are: as trees if it is a []*xmlutil.Element (built from the tokens for
// that field only, with their own declarations as in a whole-document
// tree, or shared from the tree being read), as their bytes if it is a
// []xmlutil.Raw (read from a message's bytes only, a view of them).
//
// A field tagged `xml:"name,attr"` is an attribute of its struct's element,
// in no namespace unless the tag qualifies it ("ns name,attr"). Its type is
// a simple one — read as a leaf's text is: a string as it stands, others
// trimmed — or xmlutil.Name, a QName resolved in the start tag's scope,
// where an undeclared prefix is an error. The attribute fields are a list
// of their own (plan.attrs), written in the start tag and read in decode's
// struct case before decodeFields; an absent one is left as it is. A field
// tagged `xml:",chardata"`, of a simple type, is the element's text, which
// is then all the element holds besides attributes (plan.text).
//
// Cached plans are complete and immutable: compilation runs under one
// mutex and publishes a type's plan, with those of the types it reaches,
// when all are built, so a type that contains itself terminates and racing
// first touches wait. Namespace and element name are per-call parameters.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"

	"wspeer/internal/xmlutil"
)

type planKind uint8

const (
	kindSimple planKind = iota // a built-in simple type, []byte and time.Time included
	kindPtr                    // optional: nil is an absent element
	kindSlice                  // repeated: one element per item
	kindStruct
	kindIface       // encodes as its dynamic value; cannot be decoded into
	kindTrees       // a `,any` field: the children no other field names
	kindRaws        // the same, held as bytes
	kindQName       // an xmlutil.Name `,attr` field: a QName in the element's scope
	kindUnsupported // map, chan, func, complex, array, ...
)

var (
	treesType = reflect.TypeOf([]*xmlutil.Element(nil))
	rawsType  = reflect.TypeOf([]xmlutil.Raw(nil))
	nameType  = reflect.TypeOf(xmlutil.Name{})
)

type plan struct {
	t        reflect.Type
	kind     planKind
	elem     *plan         // kindPtr, kindSlice
	fields   []fieldPlan   // kindStruct
	attrs    []fieldPlan   // kindStruct: its `,attr` fields, nil if none
	text     *fieldPlan    // kindStruct: its `,chardata` field, nil if none
	empty    reflect.Value // kindSlice: what no element at all decodes to
	repeated bool          // a slice, or pointers to one: takes every match
	// vet: an interface or an unsupported type may be in reach (it is taken
	// to be, through a type that contains itself), so check looks at values.
	vet bool
	// foreign: a namespace other than the call's may be written (a qualified
	// field, a tree, an interface), so a writer's prefixes need a walk.
	foreign bool
	scratch sync.Pool // kindSlice, kindTrees, kindRaws: *scratch, cleared
}

// fieldPlan is one marshallable field of a struct, or one part of a wrapper.
type fieldPlan struct {
	space string // a qualified tag's namespace; "" for the call's
	name  string // XML element local name (tag-aware)
	index int
	plan  *plan
}

// in is the namespace the field's element is written in when its parent's
// is ns.
func (f *fieldPlan) in(ns string) string {
	if f.space != "" {
		return f.space
	}
	return ns
}

var (
	planCache sync.Map   // reflect.Type -> *plan
	compileMu sync.Mutex // one compilation at a time
)

// planFor returns the plan for t, compiling it on first use.
func planFor(t reflect.Type) *plan {
	if p, ok := planCache.Load(t); ok {
		return p.(*plan)
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	building := map[reflect.Type]*plan{}
	p := compile(t, building)
	for t, b := range building {
		planCache.Store(t, b)
	}
	return p
}

func compile(t reflect.Type, building map[reflect.Type]*plan) *plan {
	if p, ok := planCache.Load(t); ok {
		return p.(*plan)
	}
	if p, ok := building[t]; ok {
		return p // a type that contains itself
	}
	p := &plan{t: t, kind: kindUnsupported, vet: true}
	building[t] = p
	if _, ok := SimpleTypeFor(t); ok { // []byte and time.Time before their kinds
		p.kind, p.vet = kindSimple, false
		return p
	}
	switch t.Kind() {
	case reflect.Ptr:
		p.kind, p.elem = kindPtr, compile(t.Elem(), building)
		p.repeated, p.vet, p.foreign = p.elem.repeated, p.elem.vet, p.elem.foreign
	case reflect.Slice:
		p.kind, p.elem, p.repeated = kindSlice, compile(t.Elem(), building), true
		p.empty, p.vet, p.foreign = reflect.MakeSlice(t, 0, 0), p.elem.vet, p.elem.foreign
	case reflect.Interface:
		p.kind, p.foreign = kindIface, true
	case reflect.Struct:
		p.kind = kindStruct
		seen, vet, foreign := map[string]bool{}, false, false
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			space, name, opt, skip := fieldName(f)
			key := space + " " + name
			switch opt {
			case "any":
				key = ",any"
			case "attr": // attributes and elements are named apart
				key = ",attr " + key
			case "chardata":
				key = ",chardata"
			}
			if skip || seen[key] {
				continue
			}
			seen[key] = true
			fp := fieldPlan{space: space, name: name, index: i}
			switch {
			case opt == "any" && f.Type == treesType:
				fp.plan = &plan{t: f.Type, kind: kindTrees, foreign: true}
			case opt == "any" && f.Type == rawsType:
				fp.plan = &plan{t: f.Type, kind: kindRaws, foreign: true}
			case opt == "attr" && f.Type == nameType:
				fp.plan = &plan{t: f.Type, kind: kindQName, foreign: true}
			case opt == "attr" || opt == "chardata":
				if fp.plan = compile(f.Type, building); fp.plan.kind != kindSimple {
					fp.plan = &plan{t: f.Type, kind: kindUnsupported, vet: true} // a simple value or a QName
				}
			case opt == "any":
				fp.plan = &plan{t: f.Type, kind: kindUnsupported, vet: true} // `,any` holds trees or bytes only
			default:
				fp.plan = compile(f.Type, building)
			}
			switch opt {
			case "attr":
				p.attrs = append(p.attrs, fp)
			case "chardata":
				p.text = &fp
			default:
				p.fields = append(p.fields, fp)
			}
			vet, foreign = vet || fp.plan.vet, foreign || fp.plan.foreign || space != ""
		}
		if p.text != nil && p.fields != nil { // the text is all the element holds
			p.kind = kindUnsupported
		}
		p.vet, p.foreign = vet || p.kind == kindUnsupported, foreign
	}
	return p
}

// ---------------------------------------------------------------------------
// Encoding

// sink is what an encoding walk writes to: open starts an element, with
// the attrs of the struct v in its start tag, and close, given what open
// returned, ends it; text writes its text, leaf an element holding a
// simple value, tree and raw an element as it is.
type sink interface {
	open(ns, name string, attrs []fieldPlan, v reflect.Value) (mark int)
	close(ns, name string, mark int)
	text(v reflect.Value)
	leaf(ns, name string, v reflect.Value)
	tree(el *xmlutil.Element)
	raw(r xmlutil.Raw)
}

// check reports why v cannot be encoded, if it cannot: encode's walk, over
// only the parts of the value where an unsupported type can turn up. What
// passes encodes without error, so encode has none to return.
func (p *plan) check(name string, v reflect.Value) error {
	if !p.vet {
		return nil
	}
	switch p.kind {
	case kindUnsupported:
		return fmt.Errorf("xsd: unsupported Go type %s%s", p.t, hint(p.t))
	case kindPtr:
		if !v.IsNil() {
			return p.elem.check(name, v.Elem())
		}
	case kindIface:
		if !v.IsNil() {
			iv := v.Elem()
			return planFor(iv.Type()).check(name, iv)
		}
	case kindSlice:
		for i, n := 0, v.Len(); i < n; i++ {
			if err := p.elem.check(name, v.Index(i)); err != nil {
				return fmt.Errorf("xsd: element %d of %s: %w", i, name, err)
			}
		}
	case kindStruct:
		for i := range p.attrs {
			if f := &p.attrs[i]; f.plan.kind == kindUnsupported {
				return p.fieldErr(f, fmt.Errorf("xsd: an attribute holds a simple value or an xmlutil.Name, not %s", f.plan.t))
			}
		}
		if f := p.text; f != nil && f.plan.kind == kindUnsupported {
			return p.fieldErr(f, fmt.Errorf("xsd: ,chardata holds a simple value, not %s", f.plan.t))
		}
		for i := range p.fields {
			f := &p.fields[i]
			if err := f.plan.check(f.name, v.Field(f.index)); err != nil {
				return p.fieldErr(f, err)
			}
		}
	}
	return nil
}

// encode writes v, which has passed check, as elements called {ns}name.
func (p *plan) encode(s sink, ns, name string, v reflect.Value) {
	switch p.kind {
	case kindSimple:
		s.leaf(ns, name, v)
	case kindPtr:
		if !v.IsNil() { // minOccurs="0"
			p.elem.encode(s, ns, name, v.Elem())
		}
	case kindIface:
		// The dynamic type is only known per value; its plan is a cache hit
		// after the first value of each type.
		if !v.IsNil() {
			iv := v.Elem()
			planFor(iv.Type()).encode(s, ns, name, iv)
		}
	case kindSlice:
		for i, n := 0, v.Len(); i < n; i++ {
			p.elem.encode(s, ns, name, v.Index(i))
		}
	case kindTrees:
		for i, n := 0, v.Len(); i < n; i++ {
			if el := v.Index(i).Interface().(*xmlutil.Element); el != nil {
				s.tree(el)
			}
		}
	case kindRaws:
		for i, n := 0, v.Len(); i < n; i++ {
			s.raw(*v.Index(i).Addr().Interface().(*xmlutil.Raw))
		}
	case kindStruct:
		mark := s.open(ns, name, p.attrs, v)
		if p.text != nil {
			s.text(v.Field(p.text.index))
		}
		for i := range p.fields {
			f := &p.fields[i]
			f.plan.encode(s, f.in(ns), f.name, v.Field(f.index))
		}
		s.close(ns, name, mark)
	}
}

// ---------------------------------------------------------------------------
// Decoding

// reader is what a decoding walk pulls from: a position in a message, at
// an element.
type reader interface {
	// child moves into the current element's next child element; at the
	// current element's end it moves out of it and reports false.
	child() (bool, error)
	// is: the current element's local name is local; space: its namespace.
	is(local string) bool
	space() string
	// unwind moves out of elements, whatever is left in them, until the
	// reader is in depth of them.
	depth() int
	unwind(depth int) error
	// scalar decodes the current element's character data into dst, of a
	// simple type, and moves out of the element.
	scalar(dst reflect.Value) error
	// tree is the current element as a tree, raw as its bytes; the reader
	// moves out of it.
	tree() (*xmlutil.Element, error)
	raw() (xmlutil.Raw, error)
	// attr is the current element's attribute called name; qname resolves
	// a lexical QName in its scope.
	attr(name xmlutil.Name) (string, bool)
	qname(s string) (xmlutil.Name, error)
}

// How a field has been matched so far, while its parent is read.
const (
	unmatched    uint8 = iota
	matchedLocal       // by local name only: stands unless an exact match follows
	matchedExact
)

// decodeFields reads the children of the element r is in, which it moves
// out of, into the fields they name in ns: those of strct, or parts — one
// value for each part of a wrapper — if there are any. On failure it
// returns the index of the field that did not decode, or -1 if the message
// itself is at fault.
func decodeFields(r reader, ns string, fields []fieldPlan, strct reflect.Value, parts []reflect.Value) (int, error) {
	dest := func(i int) reflect.Value {
		if parts != nil {
			return parts[i]
		}
		return strct.Field(fields[i].index)
	}
	var few [16]uint8
	state := few[:]
	if len(fields) > len(few) {
		state = make([]uint8, len(fields))
	}
	var held map[int]error // what local-only matches raised, by field
	var items *scratch     // what the repeated fields matched so far
	inside := r.depth()
	for {
		if ok, err := r.child(); err != nil {
			return -1, err
		} else if !ok {
			break
		}
		i, rest := 0, -1
		for ; i < len(fields); i++ {
			if f := &fields[i]; f.plan.kind == kindTrees || f.plan.kind == kindRaws {
				rest = i
			} else if r.is(f.name) && (f.space == "" || f.space == r.space()) {
				break
			}
		}
		if i == len(fields) && rest >= 0 {
			if err := gather(&items, rest, fields[rest].plan).appendRest(r); err != nil {
				return -1, err
			}
			continue
		}
		if i < len(fields) {
			f, dst, how := &fields[i], dest(i), matchedLocal
			if r.space() == f.in(ns) {
				how = matchedExact
			}
			p := f.plan
			if p.repeated { // items gather in scratch, dst is set at the end
				s := gather(&items, i, p)
				p, dst = s.plan, s.items
			}
			// A scalar's first match wins and a slice takes every match of
			// a kind, but exact beats local-only, and what it raised.
			take := state[i] == unmatched || state[i] == how && p.repeated && held[i] == nil
			if state[i] == matchedLocal && how == matchedExact {
				dst.SetZero()
				delete(held, i)
				take = true
			}
			if take {
				state[i] = how
				err := p.decode(r, dst, f.in(ns), f.name, false)
				switch {
				case err == nil:
					continue
				case how == matchedExact:
					return i, err
				case held == nil:
					held = map[int]error{}
				}
				held[i] = err
			}
		}
		if err := r.unwind(inside); err != nil {
			return -1, err
		}
	}
	for i, err := range held {
		return i, err
	}
	for s := items; s != nil; {
		s = s.copyTo(dest(s.field))
	}
	for i := range fields {
		if state[i] == unmatched && fields[i].plan.kind == kindSlice {
			dest(i).Set(fields[i].plan.empty)
		}
	}
	return -1, nil
}

// scratch holds one field's items while its parent is read (dropped if it fails).
type scratch struct {
	plan  *plan         // the slice plan whose pool it is from
	items reflect.Value // an addressable slice of plan.t, zero past its length
	field int
	next  *scratch // the parent's other fields with items
}

// gather is field i's scratch on the list at *items, taken from the pool of
// the slice plan under p's pointers at the field's first match.
func gather(items **scratch, i int, p *plan) *scratch {
	for s := *items; s != nil; s = s.next {
		if s.field == i {
			return s
		}
	}
	for p.kind == kindPtr {
		p = p.elem
	}
	s, _ := p.scratch.Get().(*scratch)
	if s == nil {
		s = &scratch{plan: p, items: reflect.New(p.t).Elem()}
	}
	s.field, s.next, *items = i, *items, s
	return s
}

// appendRest appends the element r is in, which it moves out of, to the
// items of a `,any` field.
func (s *scratch) appendRest(r reader) error {
	if s.plan.kind == kindRaws {
		raw, err := r.raw()
		if err == nil {
			raws := s.items.Addr().Interface().(*[]xmlutil.Raw)
			*raws = append(*raws, raw)
		}
		return err
	}
	el, err := r.tree()
	if err == nil {
		trees := s.items.Addr().Interface().(*[]*xmlutil.Element)
		*trees = append(*trees, el)
	}
	return err
}

// copyTo sets dst (nil, or nil pointers to it) to the items in one allocation
// of exactly their number, pools s cleared, and returns s's next.
func (s *scratch) copyTo(dst reflect.Value) (next *scratch) {
	for dst.Kind() == reflect.Ptr {
		dst.Set(reflect.New(dst.Type().Elem()))
		dst = dst.Elem()
	}
	n := s.items.Len()
	dst.Grow(n) // rounded up to a size class: cut to n
	dst.SetLen(n)
	dst.SetCap(n)
	reflect.Copy(dst, s.items)
	if next = s.next; s.items.Cap()*int(s.plan.t.Elem().Size()) <= xmlutil.ScratchMax {
		s.items.Clear()
		s.items.SetLen(0)
		s.next = nil
		s.plan.scratch.Put(s)
	}
	return next
}

// decode reads the element r is in — one more called name, for a field that
// repeats — into dst and moves out of it; its children are named in ns;
// inItem: dst is a slice's item.
func (p *plan) decode(r reader, dst reflect.Value, ns, name string, inItem bool) error {
	switch p.kind {
	case kindSimple:
		return r.scalar(dst)
	case kindPtr:
		if dst.IsNil() {
			dst.Set(reflect.New(p.t.Elem()))
		}
		return p.elem.decode(r, dst.Elem(), ns, name, inItem)
	case kindSlice:
		if inItem {
			return fmt.Errorf("xsd: nested slices are not supported (wrap the inner slice in a struct)")
		}
		n := dst.Len()
		dst.Grow(1)
		dst.SetLen(n + 1)
		if err := p.elem.decode(r, dst.Index(n), ns, name, true); err != nil {
			return fmt.Errorf("xsd: element %d of %s: %w", n, name, err)
		}
		return nil
	case kindStruct:
		if p.attrs != nil {
			if err := p.decodeAttrs(r, dst); err != nil {
				return err
			}
		}
		if p.text != nil {
			if err := r.scalar(dst.Field(p.text.index)); err != nil {
				return p.fieldErr(p.text, err)
			}
			return nil
		}
		i, err := decodeFields(r, ns, p.fields, dst, nil)
		if err != nil && i >= 0 {
			err = p.fieldErr(&p.fields[i], err)
		}
		return err
	}
	return fmt.Errorf("xsd: cannot decode into %s%s", p.t, hint(p.t))
}

// decodeAttrs reads the attributes of the element r is in into the struct
// dst's `,attr` fields; an absent one is left as it is.
func (p *plan) decodeAttrs(r reader, dst reflect.Value) error {
	for i := range p.attrs {
		f := &p.attrs[i]
		v, ok := r.attr(xmlutil.Name{Space: f.space, Local: f.name})
		if !ok {
			continue
		}
		var err error
		switch fv := dst.Field(f.index); {
		case f.plan.kind == kindQName:
			*fv.Addr().Interface().(*xmlutil.Name), err = r.qname(v)
		case f.plan.kind != kindSimple:
			err = fmt.Errorf("xsd: cannot decode an attribute into %s%s", f.plan.t, hint(f.plan.t))
		case fv.Kind() == reflect.String:
			fv.SetString(v)
		default:
			err = setSimple(fv, []byte(strings.TrimSpace(v)))
		}
		if err != nil {
			return p.fieldErr(f, err)
		}
	}
	return nil
}

// fieldErr is err, raised by one of the struct's fields, naming the field.
func (p *plan) fieldErr(f *fieldPlan, err error) error {
	return fmt.Errorf("xsd: field %s.%s: %w", p.t.Name(), p.t.Field(f.index).Name, err)
}

// hint says what to use in place of a type that is refused on both sides,
// and by the schema.
func hint(t reflect.Type) string {
	if t.Kind() == reflect.Array {
		return ": a fixed-size array has no schema form, use a slice"
	}
	return ""
}
