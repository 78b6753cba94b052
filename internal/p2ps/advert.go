package p2ps

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"unicode/utf8"

	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// PipeAdvertisement advertises one pipe: "essentially a named endpoint —
// although the endpoint is logical and requires an EndpointResolver to turn
// it into a physical address" (paper §IV-B).
type PipeAdvertisement struct {
	ID   string `xml:"http://wspeer.dev/p2ps Id"`   // unique pipe ID
	Name string `xml:"http://wspeer.dev/p2ps Name"` // human name within its service
	Peer PeerID `xml:"http://wspeer.dev/p2ps Peer"` // owning peer
}

// ServiceAdvertisement advertises a service as a collection of named pipes.
// WSPeer's extension adds a definition pipe "from which the service
// definition (WSDL in our case) can be retrieved", plus free-form
// attributes enabling the attribute-based search P2PS favours over DHT
// key lookup.
type ServiceAdvertisement struct {
	ID             string
	Name           string
	Peer           PeerID
	Group          string
	Pipes          []PipeAdvertisement
	DefinitionPipe *PipeAdvertisement
	Attrs          map[string]string
}

// PeerAdvertisement announces a peer and how to reach it.
type PeerAdvertisement struct {
	ID         PeerID
	Name       string
	Addr       string
	Group      string
	Rendezvous bool
}

// Pipe returns the service's pipe with the given name, or nil.
func (s *ServiceAdvertisement) Pipe(name string) *PipeAdvertisement {
	for i := range s.Pipes {
		if s.Pipes[i].Name == name {
			return &s.Pipes[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// XML serialization

// The adverts' documents, as the plans of package xsd write and read them:
// every element is named in Namespace and matches nothing else; the first
// of two elements of one name is the one read, and an element nothing
// names is skipped. Text is trimmed when it is read.

const (
	pipeAdvLocal    = "PipeAdvertisement"
	serviceAdvLocal = "ServiceAdvertisement"
	peerAdvLocal    = "PeerAdvertisement"
)

// wireService is a ServiceAdvertisement's document. Group and the
// definition pipe's and attributes' wrappers are optional elements.
type wireService struct {
	ID         string              `xml:"http://wspeer.dev/p2ps Id"`
	Name       string              `xml:"http://wspeer.dev/p2ps Name"`
	Peer       PeerID              `xml:"http://wspeer.dev/p2ps Peer"`
	Group      *string             `xml:"http://wspeer.dev/p2ps Group"`
	Pipes      []PipeAdvertisement `xml:"http://wspeer.dev/p2ps PipeAdvertisement"`
	Definition *struct {
		Pipe *PipeAdvertisement `xml:"http://wspeer.dev/p2ps PipeAdvertisement"`
	} `xml:"http://wspeer.dev/p2ps Definition"`
	Attributes *struct {
		Attrs []wireAttr `xml:"http://wspeer.dev/p2ps Attribute"`
	} `xml:"http://wspeer.dev/p2ps Attributes"`

	s ServiceAdvertisement // what parseService returns, allocated with what it is read from
}

type wireAttr struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// wirePeer is a PeerAdvertisement's document; Rendezvous is written only
// when it is "true".
type wirePeer struct {
	ID         PeerID  `xml:"http://wspeer.dev/p2ps Id"`
	Name       string  `xml:"http://wspeer.dev/p2ps Name"`
	Addr       string  `xml:"http://wspeer.dev/p2ps Addr"`
	Group      string  `xml:"http://wspeer.dev/p2ps Group"`
	Rendezvous *string `xml:"http://wspeer.dev/p2ps Rendezvous"`

	p PeerAdvertisement // what parsePeer returns
}

var trueText = "true"

// marshal writes the advert's document.
func (s *ServiceAdvertisement) marshal() []byte {
	w := &wireService{ID: s.ID, Name: s.Name, Peer: s.Peer, Pipes: s.Pipes}
	if s.Group != "" {
		w.Group = &s.Group
	}
	if s.DefinitionPipe != nil {
		w.Definition = &struct {
			Pipe *PipeAdvertisement `xml:"http://wspeer.dev/p2ps PipeAdvertisement"`
		}{s.DefinitionPipe}
	}
	if len(s.Attrs) > 0 {
		attrs := make([]wireAttr, 0, len(s.Attrs))
		for k, v := range s.Attrs {
			attrs = append(attrs, wireAttr{k, v})
		}
		slices.SortFunc(attrs, func(a, b wireAttr) int { return strings.Compare(a.Name, b.Name) })
		w.Attributes = &struct {
			Attrs []wireAttr `xml:"http://wspeer.dev/p2ps Attribute"`
		}{attrs}
	}
	b, _ := xsd.Marshal(Namespace, serviceAdvLocal, reflect.ValueOf(w).Elem()) // the wire types are all the plans' own
	return b
}

// marshal writes the advert's document.
func (p *PeerAdvertisement) marshal() []byte {
	w := &wirePeer{ID: p.ID, Name: p.Name, Addr: p.Addr, Group: p.Group}
	if p.Rendezvous {
		w.Rendezvous = &trueText
	}
	b, _ := xsd.Marshal(Namespace, peerAdvLocal, reflect.ValueOf(w).Elem())
	return b
}

// Raw writes the pipe advertisement as an element of its own, to ride in
// other documents.
func (p *PipeAdvertisement) Raw() xmlutil.Raw {
	r, _ := xsd.MarshalRaw(Namespace, pipeAdvLocal, reflect.ValueOf(p).Elem())
	return r
}

// PipeAdvertisementFromRaw reads a pipe advertisement.
func PipeAdvertisementFromRaw(r xmlutil.Raw) (*PipeAdvertisement, error) {
	t, err := r.Tokenizer()
	if err != nil {
		return nil, err
	}
	defer t.Release()
	p := new(PipeAdvertisement)
	if err := decode(t, pipeAdvLocal, p); err != nil {
		return nil, err
	}
	return p, p.read()
}

// read trims what was read and checks it.
func (p *PipeAdvertisement) read() error {
	p.ID, p.Name, p.Peer = strings.TrimSpace(p.ID), strings.TrimSpace(p.Name), PeerID(strings.TrimSpace(string(p.Peer)))
	if p.ID == "" {
		return fmt.Errorf("p2ps: PipeAdvertisement without Id")
	}
	return xmlText(p.ID, p.Name, string(p.Peer))
}

// parseService reads a service advertisement's document.
func parseService(data []byte) (*ServiceAdvertisement, error) {
	w := new(wireService)
	if err := decodeDocument(data, serviceAdvLocal, w); err != nil {
		return nil, err
	}
	s := &w.s
	*s = ServiceAdvertisement{ID: strings.TrimSpace(w.ID), Name: strings.TrimSpace(w.Name), Peer: PeerID(strings.TrimSpace(string(w.Peer)))}
	if w.Group != nil {
		s.Group = strings.TrimSpace(*w.Group)
	}
	if len(w.Pipes) > 0 {
		s.Pipes = w.Pipes
	}
	for i := range s.Pipes {
		if err := s.Pipes[i].read(); err != nil {
			return nil, err
		}
	}
	if w.Definition != nil && w.Definition.Pipe != nil {
		s.DefinitionPipe = w.Definition.Pipe
		if err := s.DefinitionPipe.read(); err != nil {
			return nil, err
		}
	}
	if w.Attributes != nil {
		for _, a := range w.Attributes.Attrs {
			if a.Name == "" {
				continue
			}
			if s.Attrs == nil {
				s.Attrs = make(map[string]string, len(w.Attributes.Attrs))
			}
			s.Attrs[a.Name] = strings.TrimSpace(a.Value)
			if err := xmlText(s.Attrs[a.Name]); err != nil {
				return nil, err
			}
		}
	}
	if s.ID == "" || s.Name == "" {
		return nil, fmt.Errorf("p2ps: ServiceAdvertisement missing Id or Name")
	}
	return s, xmlText(s.ID, s.Name, string(s.Peer), s.Group)
}

// parsePeer reads a peer advertisement's document.
func parsePeer(data []byte) (*PeerAdvertisement, error) {
	w := new(wirePeer)
	if err := decodeDocument(data, peerAdvLocal, w); err != nil {
		return nil, err
	}
	p := &w.p
	*p = PeerAdvertisement{ID: PeerID(strings.TrimSpace(string(w.ID))), Name: strings.TrimSpace(w.Name),
		Addr: strings.TrimSpace(w.Addr), Group: strings.TrimSpace(w.Group),
		Rendezvous: w.Rendezvous != nil && strings.TrimSpace(*w.Rendezvous) == "true"}
	if p.ID == "" {
		return nil, fmt.Errorf("p2ps: PeerAdvertisement without Id")
	}
	return p, xmlText(string(p.ID), p.Name, p.Addr, p.Group)
}

// decodeDocument reads the document data, whose element is local, into w.
func decodeDocument(data []byte, local string, w any) error {
	t := xmlutil.AcquireTokenizer(data)
	defer t.Release()
	kind, err := t.Next()
	if err == nil {
		err = decode(t, local, w)
	}
	for err == nil && kind != xmlutil.TokenEOF { // what follows is checked
		kind, err = t.Next()
	}
	return err
}

// decode reads the element whose start tag t has just returned, which must
// be the advert called local, into w.
func decode(t *xmlutil.Tokenizer, local string, w any) error {
	if t.Space != Namespace || string(t.Local) != local {
		return fmt.Errorf("p2ps: element %v is not a %s", t.Name(), local)
	}
	return xsd.DecodeValue(t, Namespace, reflect.ValueOf(w).Elem())
}

// xmlText refuses text that XML cannot carry, which writing the advert
// again would change: a character outside XML's, or bytes that are not
// UTF-8.
func xmlText(texts ...string) error {
	for _, s := range texts {
		bad := !utf8.ValidString(s)
		for _, r := range s {
			bad = bad || r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF
		}
		if bad {
			return fmt.Errorf("p2ps: advert text %q holds what XML cannot carry", s)
		}
	}
	return nil
}
