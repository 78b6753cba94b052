package core

import (
	"fmt"
	"strings"
)

// P2PSScheme is the URI scheme WSPeer defines for P2PS endpoints.
const P2PSScheme = "p2ps"

// P2PSURI is WSPeer's logical endpoint reference for the P2PS binding
// (paper §IV-B):
//
//	p2ps://<peer-id>/<service-name>#<pipe-name>
//
// "The host component is the peer's unique id. The path component
// represents the name of the service advertisement associated with the
// pipe. If there is no service associated with the pipe, the path
// component may be empty. The fragment component represents the pipe
// name." Defining the scheme lets WSPeer "chain separate elements together
// into a single parsable unit".
type P2PSURI struct {
	Peer    string // peer ID (required)
	Service string // service advertisement name (optional)
	Pipe    string // pipe name (optional)
}

// String renders the URI.
func (u P2PSURI) String() string {
	var b strings.Builder
	b.Grow(len(P2PSScheme) + len("://") + len(u.Peer) + 1 + len(u.Service) + 1 + len(u.Pipe))
	b.WriteString(P2PSScheme)
	b.WriteString("://")
	b.WriteString(u.Peer)
	if u.Service != "" {
		b.WriteByte('/')
		b.WriteString(u.Service)
	}
	if u.Pipe != "" {
		b.WriteByte('#')
		b.WriteString(u.Pipe)
	}
	return b.String()
}

// WithPipe returns a copy addressing a specific pipe.
func (u P2PSURI) WithPipe(pipe string) P2PSURI {
	u.Pipe = pipe
	return u
}

// ParseP2PSURI parses a p2ps:// URI.
func ParseP2PSURI(s string) (P2PSURI, error) {
	const prefix = P2PSScheme + "://"
	if !strings.HasPrefix(s, prefix) {
		return P2PSURI{}, fmt.Errorf("core: %q is not a p2ps URI", s)
	}
	rest := s[len(prefix):]
	var u P2PSURI
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		u.Pipe = rest[i+1:]
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		u.Service = rest[i+1:]
		rest = rest[:i]
	}
	u.Peer = rest
	if u.Peer == "" {
		return P2PSURI{}, fmt.Errorf("core: p2ps URI %q has no peer id", s)
	}
	if strings.ContainsAny(u.Service, "/") {
		return P2PSURI{}, fmt.Errorf("core: p2ps URI %q has a multi-segment path", s)
	}
	return u, nil
}

// IsP2PSURI reports whether s looks like a p2ps:// URI.
func IsP2PSURI(s string) bool {
	return strings.HasPrefix(s, P2PSScheme+"://")
}
