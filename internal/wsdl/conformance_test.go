package wsdl

import (
	"context"
	"fmt"
	"testing"

	"wspeer/internal/xmlutil"
)

// Conformance fixtures: WSDL documents in the styles other 2004-era stacks
// emitted. WSPeer's locators must consume these, since the paper's whole
// point is interoperating with services it did not host.

// axisStyleWSDL mimics Apache Axis 1.x output: wsdl default namespace,
// impl/intf namespace split, apachesoap prefix noise.
const axisStyleWSDL = `<?xml version="1.0" encoding="UTF-8"?>
<definitions targetNamespace="http://example.org/axis/EchoService"
    xmlns="http://schemas.xmlsoap.org/wsdl/"
    xmlns:apachesoap="http://xml.apache.org/xml-soap"
    xmlns:impl="http://example.org/axis/EchoService"
    xmlns:wsdlsoap="http://schemas.xmlsoap.org/wsdl/soap/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <types>
    <schema targetNamespace="http://example.org/axis/EchoService"
        xmlns="http://www.w3.org/2001/XMLSchema" elementFormDefault="qualified">
      <element name="echo">
        <complexType><sequence>
          <element name="in0" type="xsd:string"/>
        </sequence></complexType>
      </element>
      <element name="echoResponse">
        <complexType><sequence>
          <element name="echoReturn" type="xsd:string"/>
        </sequence></complexType>
      </element>
    </schema>
  </types>
  <message name="echoRequest">
    <part element="impl:echo" name="parameters"/>
  </message>
  <message name="echoResponse">
    <part element="impl:echoResponse" name="parameters"/>
  </message>
  <portType name="Echo">
    <operation name="echo">
      <input message="impl:echoRequest" name="echoRequest"/>
      <output message="impl:echoResponse" name="echoResponse"/>
    </operation>
  </portType>
  <binding name="EchoSoapBinding" type="impl:Echo">
    <wsdlsoap:binding style="document" transport="http://schemas.xmlsoap.org/soap/http"/>
    <operation name="echo">
      <wsdlsoap:operation soapAction=""/>
      <input name="echoRequest"><wsdlsoap:body use="literal"/></input>
      <output name="echoResponse"><wsdlsoap:body use="literal"/></output>
    </operation>
  </binding>
  <service name="EchoService">
    <port binding="impl:EchoSoapBinding" name="Echo">
      <wsdlsoap:address location="http://host:8080/axis/services/Echo"/>
    </port>
  </service>
</definitions>`

func TestAxisStyleWSDL(t *testing.T) {
	d, err := Parse([]byte(axisStyleWSDL))
	if err != nil {
		t.Fatal(err)
	}
	if d.TargetNamespace != "http://example.org/axis/EchoService" {
		t.Fatalf("tns = %q", d.TargetNamespace)
	}
	det, err := d.Detail("echo")
	if err != nil {
		t.Fatal(err)
	}
	if det.Address != "http://host:8080/axis/services/Echo" {
		t.Fatalf("address = %q", det.Address)
	}
	if det.Input.Local != "echo" || det.Output.Local != "echoResponse" {
		t.Fatalf("wrappers: %v / %v", det.Input, det.Output)
	}
	if det.Transport != TransportHTTP {
		t.Fatalf("transport = %q", det.Transport)
	}
	// The schema and its element declarations are kept.
	if schemas := d.RawSchemas(); len(schemas) != 1 || schemas[0].Find(xmlutil.N(schemaName.Space, "element")) == nil {
		t.Fatalf("the Axis-style document's schemas: %v", schemas)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

// dotNetStyleWSDL mimics .NET asmx output: s0 prefix, soap prefix for the
// binding namespace, definitions prefix on the WSDL namespace.
const dotNetStyleWSDL = `<?xml version="1.0" encoding="utf-8"?>
<wsdl:definitions xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
    xmlns:s="http://www.w3.org/2001/XMLSchema"
    xmlns:s0="http://tempuri.org/"
    targetNamespace="http://tempuri.org/"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/">
  <wsdl:types>
    <s:schema elementFormDefault="qualified" targetNamespace="http://tempuri.org/">
      <s:element name="Add">
        <s:complexType><s:sequence>
          <s:element minOccurs="1" maxOccurs="1" name="a" type="s:int"/>
          <s:element minOccurs="1" maxOccurs="1" name="b" type="s:int"/>
        </s:sequence></s:complexType>
      </s:element>
      <s:element name="AddResponse">
        <s:complexType><s:sequence>
          <s:element minOccurs="1" maxOccurs="1" name="AddResult" type="s:int"/>
        </s:sequence></s:complexType>
      </s:element>
    </s:schema>
  </wsdl:types>
  <wsdl:message name="AddSoapIn"><wsdl:part name="parameters" element="s0:Add"/></wsdl:message>
  <wsdl:message name="AddSoapOut"><wsdl:part name="parameters" element="s0:AddResponse"/></wsdl:message>
  <wsdl:portType name="CalculatorSoap">
    <wsdl:operation name="Add">
      <wsdl:input message="s0:AddSoapIn"/>
      <wsdl:output message="s0:AddSoapOut"/>
    </wsdl:operation>
  </wsdl:portType>
  <wsdl:binding name="CalculatorSoap" type="s0:CalculatorSoap">
    <soap:binding transport="http://schemas.xmlsoap.org/soap/http" style="document"/>
    <wsdl:operation name="Add">
      <soap:operation soapAction="http://tempuri.org/Add" style="document"/>
      <wsdl:input><soap:body use="literal"/></wsdl:input>
      <wsdl:output><soap:body use="literal"/></wsdl:output>
    </wsdl:operation>
  </wsdl:binding>
  <wsdl:service name="Calculator">
    <wsdl:port name="CalculatorSoap" binding="s0:CalculatorSoap">
      <soap:address location="http://server/calc.asmx"/>
    </wsdl:port>
  </wsdl:service>
</wsdl:definitions>`

func TestDotNetStyleWSDL(t *testing.T) {
	d, err := Parse([]byte(dotNetStyleWSDL))
	if err != nil {
		t.Fatal(err)
	}
	det, err := d.Detail("Add")
	if err != nil {
		t.Fatal(err)
	}
	if det.SOAPAction != "http://tempuri.org/Add" {
		t.Fatalf("action = %q", det.SOAPAction)
	}
	if det.Address != "http://server/calc.asmx" {
		t.Fatalf("address = %q", det.Address)
	}
	if det.Input != xmlutil.N("http://tempuri.org/", "Add") {
		t.Fatalf("input wrapper = %v", det.Input)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

// gSoapStyleWSDL exercises a one-way operation and multiple ports sharing
// a binding.
const gSoapStyleWSDL = `<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:tns="urn:notify" xmlns:ws="http://schemas.xmlsoap.org/wsdl/soap/"
    targetNamespace="urn:notify">
  <wsdl:message name="NotifyIn"><wsdl:part name="p" element="tns:notify"/></wsdl:message>
  <wsdl:portType name="NotifyPT">
    <wsdl:operation name="notify"><wsdl:input message="tns:NotifyIn"/></wsdl:operation>
  </wsdl:portType>
  <wsdl:binding name="NotifyB" type="tns:NotifyPT">
    <ws:binding style="document" transport="http://schemas.xmlsoap.org/soap/http"/>
    <wsdl:operation name="notify">
      <ws:operation soapAction="urn:notify#notify"/>
      <wsdl:input><ws:body use="literal"/></wsdl:input>
    </wsdl:operation>
  </wsdl:binding>
  <wsdl:service name="NotifySvc">
    <wsdl:port name="A" binding="tns:NotifyB"><ws:address location="http://a/notify"/></wsdl:port>
    <wsdl:port name="B" binding="tns:NotifyB"><ws:address location="http://b/notify"/></wsdl:port>
  </wsdl:service>
</wsdl:definitions>`

func TestOneWayMultiPortWSDL(t *testing.T) {
	d, err := Parse([]byte(gSoapStyleWSDL))
	if err != nil {
		t.Fatal(err)
	}
	op := d.Operation("notify")
	if op == nil || !op.OneWay() {
		t.Fatalf("one-way lost: %+v", op)
	}
	det, err := d.Detail("notify")
	if err != nil {
		t.Fatal(err)
	}
	// The first port wins.
	if det.Address != "http://a/notify" {
		t.Fatalf("address = %q", det.Address)
	}
	if len(d.Service("NotifySvc").Ports) != 2 {
		t.Fatal("second port lost")
	}
}

// Split WSDL: a service document importing an interface document, which in
// turn imports the message/type document — the classic three-layer layout.
const splitServiceDoc = `<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:tns="urn:split" xmlns:ws="http://schemas.xmlsoap.org/wsdl/soap/"
    targetNamespace="urn:split">
  <wsdl:import namespace="urn:split" location="http://docs/interface.wsdl"/>
  <wsdl:service name="SplitSvc">
    <wsdl:port name="P" binding="tns:EchoB"><ws:address location="http://host/split"/></wsdl:port>
  </wsdl:service>
</wsdl:definitions>`

const splitInterfaceDoc = `<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:tns="urn:split" xmlns:ws="http://schemas.xmlsoap.org/wsdl/soap/"
    targetNamespace="urn:split">
  <wsdl:import namespace="urn:split" location="http://docs/messages.wsdl"/>
  <wsdl:portType name="EchoPT">
    <wsdl:operation name="echo">
      <wsdl:input message="tns:EchoIn"/><wsdl:output message="tns:EchoOut"/>
    </wsdl:operation>
  </wsdl:portType>
  <wsdl:binding name="EchoB" type="tns:EchoPT">
    <ws:binding style="document" transport="http://schemas.xmlsoap.org/soap/http"/>
    <wsdl:operation name="echo">
      <ws:operation soapAction="urn:split#echo"/>
      <wsdl:input><ws:body use="literal"/></wsdl:input>
      <wsdl:output><ws:body use="literal"/></wsdl:output>
    </wsdl:operation>
  </wsdl:binding>
</wsdl:definitions>`

const splitMessagesDoc = `<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:tns="urn:split" targetNamespace="urn:split">
  <wsdl:message name="EchoIn"><wsdl:part name="p" element="tns:echo"/></wsdl:message>
  <wsdl:message name="EchoOut"><wsdl:part name="p" element="tns:echoResponse"/></wsdl:message>
</wsdl:definitions>`

func splitFetcher(t *testing.T) Fetcher {
	docs := map[string]string{
		"http://docs/interface.wsdl": splitInterfaceDoc,
		"http://docs/messages.wsdl":  splitMessagesDoc,
	}
	return func(_ context.Context, location string) ([]byte, error) {
		doc, ok := docs[location]
		if !ok {
			return nil, fmt.Errorf("no such document %q", location)
		}
		return []byte(doc), nil
	}
}

func TestSplitWSDLImports(t *testing.T) {
	d, err := Parse([]byte(splitServiceDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Imports) != 1 || d.Imports[0].Location != "http://docs/interface.wsdl" {
		t.Fatalf("imports = %+v", d.Imports)
	}
	// Before resolution the operation is unknown.
	if _, err := d.Detail("echo"); err == nil {
		t.Fatal("detail resolved without imports")
	}
	if err := d.ResolveImports(context.Background(), splitFetcher(t)); err != nil {
		t.Fatal(err)
	}
	det, err := d.Detail("echo")
	if err != nil {
		t.Fatal(err)
	}
	if det.Address != "http://host/split" || det.SOAPAction != "urn:split#echo" {
		t.Fatalf("detail: %+v", det)
	}
	if det.Input.Local != "echo" {
		t.Fatalf("input = %v", det.Input)
	}
	if len(d.Imports) != 0 {
		t.Fatal("imports not consumed")
	}
}

func TestImportCycleTerminates(t *testing.T) {
	a := `<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/" targetNamespace="urn:a">
	  <wsdl:import namespace="urn:b" location="b"/></wsdl:definitions>`
	b := `<wsdl:definitions xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/" targetNamespace="urn:b">
	  <wsdl:import namespace="urn:a" location="a"/></wsdl:definitions>`
	docs := map[string]string{"a": a, "b": b}
	fetch := func(_ context.Context, loc string) ([]byte, error) {
		return []byte(docs[loc]), nil
	}
	d, err := Parse([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ResolveImports(context.Background(), fetch); err != nil {
		t.Fatalf("cycle did not terminate cleanly: %v", err)
	}
}

func TestImportErrors(t *testing.T) {
	d, err := Parse([]byte(splitServiceDoc))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ResolveImports(context.Background(), nil); err == nil {
		t.Fatal("nil fetcher accepted")
	}
	failing := func(context.Context, string) ([]byte, error) {
		return nil, fmt.Errorf("network down")
	}
	if err := d.ResolveImports(context.Background(), failing); err == nil {
		t.Fatal("fetch failure swallowed")
	}
	// Unparseable import.
	d2, _ := Parse([]byte(splitServiceDoc))
	garbage := func(context.Context, string) ([]byte, error) { return []byte("junk"), nil }
	if err := d2.ResolveImports(context.Background(), garbage); err == nil {
		t.Fatal("garbage import accepted")
	}
}
