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

// EPRFromElement reads an EPR from its XML form through the plan
// FromEnvelope reads one with.
func EPRFromElement(el *xmlutil.Element) (*EndpointReference, error) {
	parent := xmlutil.NewElement(xmlutil.Name{})
	parent.AppendShared(el)
	v, err := xsd.ExtractValue(parent, el.Name.Space, el.Name.Local, reflect.TypeOf(wireEPR{}))
	if err != nil {
		return nil, err
	}
	w := v.Interface().(wireEPR)
	return w.read(el.Name.Local)
}
