package p2ps

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"wspeer/internal/query"
)

// Wire message types.
const (
	msgAttach          = "attach"
	msgAttachResponse  = "attachResponse"
	msgPublish         = "publish"
	msgUnpublish       = "unpublish"
	msgQuery           = "query"
	msgQueryResponse   = "queryResponse"
	msgResolve         = "resolve"
	msgResolveResponse = "resolveResponse"
	msgData            = "data"
)

// message is the P2PS wire unit. Everything peers exchange — adverts,
// queries, resolutions and pipe data — travels as one of these, encoded as
// a binary frame:
//
//	'P' 'S' version, then fields: tag byte, uvarint length, value
//
// Only fields that are set are written, in tag order; a decoder rejects a
// tag its version does not define (the version byte is how the format
// changes). Strings and Data are their raw bytes, TTL and Hops signed
// varints, an attribute a uvarint key length, the key, then the value.
// The two adverts are the bytes of their XML documents (marshal /
// parsePeer, parseService): the advertisement format is XML, as in the
// paper; the envelope around it is not.
//
// decodeMessage makes the string fields one string, which each is a
// substring of, and does not copy Data: it is a sub-slice of the frame it was
// handed. That is sound only because every Transport (tcp's frameReader,
// LocalEndpoint.Send, netsim's Endpoint.Send) hands the receiver a buffer
// it never writes again, and pipe listeners treat what they are given as
// read-only.
type message struct {
	Type  string
	From  PeerID
	Addr  string // sender's transport address
	Group string
	TTL   int
	Hops  int

	QueryID      string
	Name         string // query pattern / unpublish advert ID / misc
	Expr         string // rich query expression (package query)
	Attrs        map[string]string
	PeerAdv      *PeerAdvertisement
	ServiceAdv   *ServiceAdvertisement
	PipeID       string
	Data         []byte   // nil (absent) and empty are distinct on the wire
	RdvAddrs     []string // rendezvous gossip
	TargetPeer   PeerID
	ResolvedAddr string
}

const (
	frameMagic   = "PS"
	frameVersion = 1
	frameHeader  = len(frameMagic) + 1
)

// Field tags. A frame carries each at most once, except tagAttr and
// tagRdvAddr, which repeat.
const (
	tagType byte = iota + 1
	tagFrom
	tagAddr
	tagGroup
	tagTTL
	tagHops
	tagQueryID
	tagName
	tagExpr
	tagAttr
	tagPeerAdv
	tagServiceAdv
	tagPipeID
	tagData
	tagRdvAddr
	tagTargetPeer
	tagResolvedAddr
)

// frameWriter lays a message's fields out twice over the same code: with
// buf nil it only adds up the frame's size, with buf set it appends, so
// the frame is built in one buffer of exactly the right capacity.
type frameWriter struct {
	buf  []byte
	size int
}

func (w *frameWriter) header(tag byte, n int) {
	if w.buf == nil {
		w.size += 1 + uvarintLen(uint64(n)) + n
		return
	}
	w.buf = append(w.buf, tag)
	w.buf = binary.AppendUvarint(w.buf, uint64(n))
}

// str writes a string field, or nothing for the empty string.
func (w *frameWriter) str(tag byte, s string) {
	if s != "" {
		w.strAlways(tag, s)
	}
}

func (w *frameWriter) strAlways(tag byte, s string) {
	w.header(tag, len(s))
	if w.buf != nil {
		w.buf = append(w.buf, s...)
	}
}

func (w *frameWriter) bytes(tag byte, b []byte) {
	if b == nil {
		return
	}
	w.header(tag, len(b))
	if w.buf != nil {
		w.buf = append(w.buf, b...)
	}
}

func (w *frameWriter) int(tag byte, v int) {
	if v == 0 {
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	w.bytes(tag, tmp[:binary.PutVarint(tmp[:], int64(v))])
}

func (w *frameWriter) attr(k, v string) {
	kl := uvarintLen(uint64(len(k)))
	w.header(tagAttr, kl+len(k)+len(v))
	if w.buf != nil {
		w.buf = binary.AppendUvarint(w.buf, uint64(len(k)))
		w.buf = append(w.buf, k...)
		w.buf = append(w.buf, v...)
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// writeFields is the one list of what a frame holds and in what order.
func (m *message) writeFields(w *frameWriter, attrKeys []string, peerAdv, serviceAdv []byte) {
	w.str(tagType, m.Type)
	w.str(tagFrom, string(m.From))
	w.str(tagAddr, m.Addr)
	w.str(tagGroup, m.Group)
	w.int(tagTTL, m.TTL)
	w.int(tagHops, m.Hops)
	w.str(tagQueryID, m.QueryID)
	w.str(tagName, m.Name)
	w.str(tagExpr, m.Expr)
	for _, k := range attrKeys {
		w.attr(k, m.Attrs[k])
	}
	w.bytes(tagPeerAdv, peerAdv)
	w.bytes(tagServiceAdv, serviceAdv)
	w.str(tagPipeID, m.PipeID)
	w.bytes(tagData, m.Data)
	for _, a := range m.RdvAddrs {
		w.strAlways(tagRdvAddr, a) // even when empty: the list keeps its length
	}
	w.str(tagTargetPeer, string(m.TargetPeer))
	w.str(tagResolvedAddr, m.ResolvedAddr)
}

func (m *message) encode() []byte {
	var attrKeys []string
	if len(m.Attrs) > 0 {
		attrKeys = make([]string, 0, len(m.Attrs))
		for k := range m.Attrs {
			attrKeys = append(attrKeys, k)
		}
		sort.Strings(attrKeys)
	}
	var peerAdv, serviceAdv []byte
	if m.PeerAdv != nil {
		peerAdv = m.PeerAdv.marshal()
	}
	if m.ServiceAdv != nil {
		serviceAdv = m.ServiceAdv.marshal()
	}
	w := frameWriter{size: frameHeader}
	m.writeFields(&w, attrKeys, peerAdv, serviceAdv)
	w.buf = append(append(make([]byte, 0, w.size), frameMagic...), frameVersion)
	m.writeFields(&w, attrKeys, peerAdv, serviceAdv)
	return w.buf
}

var messageTypes = [...]string{
	msgAttach, msgAttachResponse, msgPublish, msgUnpublish, msgQuery,
	msgQueryResponse, msgResolve, msgResolveResponse, msgData,
}

// messageType returns the constant for a known wire type, so decoding the
// type of every frame allocates nothing.
func messageType(b []byte) string {
	for _, t := range messageTypes {
		if string(b) == t {
			return t
		}
	}
	return string(b)
}

// frameInt decodes a TTL or hop count: one signed varint filling the field.
func frameInt(what string, val []byte) (int, error) {
	v, n := binary.Varint(val)
	if n <= 0 || n != len(val) || int64(int(v)) != v {
		return 0, fmt.Errorf("bad %s % x", what, val)
	}
	return int(v), nil
}

// frameField splits the field at the start of rest, a frame's fields, off
// it: its tag, its value and the fields after it.
func frameField(rest []byte) (tag byte, val, next []byte, err error) {
	tag = rest[0]
	n, ln := binary.Uvarint(rest[1:])
	if ln <= 0 {
		return 0, nil, nil, fmt.Errorf("p2ps: field %d: bad length", tag)
	}
	if n > maxFrame {
		return 0, nil, nil, fmt.Errorf("p2ps: field %d of %d bytes exceeds limit", tag, n)
	}
	rest = rest[1+ln:]
	if n > uint64(len(rest)) {
		return 0, nil, nil, fmt.Errorf("p2ps: field %d of %d bytes runs past the frame", tag, n)
	}
	return tag, rest[:n:n], rest[n:], nil
}

func decodeMessage(data []byte) (*message, error) {
	if len(data) < frameHeader || string(data[:len(frameMagic)]) != frameMagic {
		return nil, fmt.Errorf("p2ps: not a message frame")
	}
	if v := data[len(frameMagic)]; v != frameVersion {
		return nil, fmt.Errorf("p2ps: unknown frame version %d", v)
	}
	// A first pass checks the fields and sizes one string for every string
	// field, each a substring of it: one allocation, which one kept keeps.
	size := 0
	for rest := data[frameHeader:]; len(rest) > 0; {
		tag, val, next, err := frameField(rest)
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagFrom, tagAddr, tagGroup, tagQueryID, tagName, tagExpr, tagPipeID, tagRdvAddr, tagTargetPeer, tagResolvedAddr:
			size += len(val)
		}
		rest = next
	}
	var text strings.Builder
	text.Grow(size)
	cut := func(b []byte) string { at := text.Len(); text.Write(b); return text.String()[at:] }
	m := &message{}
	for rest := data[frameHeader:]; len(rest) > 0; {
		tag, val, next, _ := frameField(rest)
		rest = next
		var err error
		switch tag {
		case tagType:
			m.Type = messageType(val)
		case tagFrom:
			m.From = PeerID(cut(val))
		case tagAddr:
			m.Addr = cut(val)
		case tagGroup:
			m.Group = cut(val)
		case tagTTL:
			m.TTL, err = frameInt("ttl", val)
		case tagHops:
			m.Hops, err = frameInt("hops", val)
		case tagQueryID:
			m.QueryID = cut(val)
		case tagName:
			m.Name = cut(val)
		case tagExpr:
			m.Expr = cut(val)
		case tagAttr:
			kn, kl := binary.Uvarint(val)
			if kl <= 0 || kn > uint64(len(val)-kl) {
				return nil, fmt.Errorf("p2ps: bad attribute field")
			}
			if m.Attrs == nil {
				m.Attrs = make(map[string]string)
			}
			m.Attrs[string(val[kl:kl+int(kn)])] = string(val[kl+int(kn):])
		case tagPeerAdv:
			m.PeerAdv, err = parsePeer(val)
		case tagServiceAdv:
			m.ServiceAdv, err = parseService(val)
		case tagPipeID:
			m.PipeID = cut(val)
		case tagData:
			m.Data = val
		case tagRdvAddr:
			m.RdvAddrs = append(m.RdvAddrs, cut(val))
		case tagTargetPeer:
			m.TargetPeer = PeerID(cut(val))
		case tagResolvedAddr:
			m.ResolvedAddr = cut(val)
		default:
			return nil, fmt.Errorf("p2ps: unknown field %d", tag)
		}
		if err != nil {
			return nil, fmt.Errorf("p2ps: message: %w", err)
		}
	}
	if m.Type == "" {
		return nil, fmt.Errorf("p2ps: message without type")
	}
	return m, nil
}

// Query selects service advertisements by name pattern and attributes:
// the attribute-based search the paper contrasts with DHT key lookup. An
// optional Expr adds the rich predicate language (package query) — the
// paper's "more complex queries" extension point — evaluated in-network
// by every peer the query reaches.
type Query struct {
	// Name matches the advertised service name. "*" (or empty) matches
	// any name; a trailing "*" matches a prefix; otherwise exact.
	Name string
	// Attrs must all be present with equal values in the advert.
	Attrs map[string]string
	// Group restricts matching to adverts published in that group
	// ("" matches any group).
	Group string
	// Expr is a rich predicate in the package query language, combined
	// (AND) with the other constraints. A malformed expression matches
	// nothing.
	Expr string

	compiled *query.Expr
}

// Prepare compiles the query's expression (if any); it is called once per
// received query so Matches doesn't re-parse per advert.
func (q *Query) Prepare() error {
	if q.Expr == "" || q.compiled != nil {
		return nil
	}
	e, err := query.Compile(q.Expr)
	if err != nil {
		return err
	}
	q.compiled = e
	return nil
}

// Matches reports whether an advert satisfies the query.
func (q Query) Matches(adv *ServiceAdvertisement) bool {
	if q.Group != "" && adv.Group != "" && q.Group != adv.Group {
		return false
	}
	switch {
	case q.Name == "" || q.Name == "*":
		// any
	case strings.HasSuffix(q.Name, "*"):
		if !strings.HasPrefix(adv.Name, strings.TrimSuffix(q.Name, "*")) {
			return false
		}
	default:
		if adv.Name != q.Name {
			return false
		}
	}
	for k, v := range q.Attrs {
		if adv.Attrs[k] != v {
			return false
		}
	}
	if q.Expr != "" {
		e := q.compiled
		if e == nil {
			var err error
			if e, err = query.Compile(q.Expr); err != nil {
				return false // fail closed on malformed expressions
			}
		}
		return e.Matches(&query.Subject{
			Name:  adv.Name,
			Group: adv.Group,
			Peer:  string(adv.Peer),
			Attrs: adv.Attrs,
		})
	}
	return true
}
