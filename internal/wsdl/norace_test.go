//go:build !race

package wsdl

const raceEnabled = false
