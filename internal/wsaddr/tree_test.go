package wsaddr

import (
	"reflect"

	"wspeer/internal/soap"
	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// The tree forms of an endpoint reference, for the tests that hold them to
// the header path: nothing else builds or reads an EPR as a tree.

// eprBlock is an EPR as a header block of its own.
type eprBlock struct {
	name xmlutil.Name
	epr  *EndpointReference
}

func (b eprBlock) WriteHeader(hw *soap.HeaderWriter) { b.epr.write(hw, b.name) }

// Element builds the EPR as an element with the given name (for example
// wsa:ReplyTo or wsa:EndpointReference): what a header writes, parsed.
func (e *EndpointReference) Element(name xmlutil.Name) *xmlutil.Element {
	return soap.NewEnvelope().AddHeaderValue(eprBlock{name, e}).Headers()[0]
}

// EPRFromElement reads an EPR from its XML form, marshalled, through the
// plan FromEnvelope reads one with.
func EPRFromElement(el *xmlutil.Element) (*EndpointReference, error) {
	t := xmlutil.AcquireTokenizer(xmlutil.Marshal(el))
	defer t.Release()
	w := new(wireEPR)
	if _, err := t.Next(); err != nil {
		return nil, err
	}
	if err := xsd.DecodeValue(t, el.Name.Space, reflect.ValueOf(w).Elem()); err != nil {
		return nil, err
	}
	return w.read(el.Name.Local)
}
