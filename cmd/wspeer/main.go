// Command wspeer is the client-side CLI: it locates services through a
// UDDI registry or a P2PS overlay, describes their interfaces, and invokes
// operations with key=value parameters.
//
//	wspeer find    -uddi <registry-url> [-name 'Echo*']
//	wspeer find    -seed tcp://host:port [-name 'Echo*']
//	wspeer describe -uddi <registry-url> -name Echo
//	wspeer invoke  -uddi <registry-url> -name Echo -op echo msg=hello
//	wspeer invoke  -seed tcp://host:port -name Echo -op echo msg=hello
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"wspeer"
	"wspeer/internal/xmlutil"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wspeer <find|describe|invoke> [flags] [param=value ...]
  -uddi URL     locate through a UDDI registry (standard binding)
  -seed ADDR    locate through a P2PS overlay seeded at ADDR
  -name NAME    service name or pattern (default '*')
  -expr EXPR    rich query, e.g. "attr(kind) = 'echo' and attr(price) < 1"
  -op NAME      operation to invoke (invoke only)
  -timeout DUR  overall timeout (default 15s)`)
	os.Exit(2)
}

// cliArgs is the parsed command line.
type cliArgs struct {
	cmd     string
	uddiURL string
	seed    string
	name    string
	expr    string
	op      string
	timeout time.Duration
	params  []wspeer.Param
}

// query builds the ServiceQuery the arguments describe.
func (a *cliArgs) query() wspeer.ServiceQuery {
	if a.expr != "" {
		return wspeer.ExprQuery{Name: a.name, Expr: a.expr}
	}
	return wspeer.NameQuery{Name: a.name}
}

// parseCLI interprets the command line (excluding the program name).
func parseCLI(argv []string) (*cliArgs, error) {
	if len(argv) < 1 {
		return nil, fmt.Errorf("missing command")
	}
	a := &cliArgs{cmd: argv[0], timeout: 15 * time.Second}
	args := argv[1:]
	take := func(i int, flag string) (string, error) {
		if i >= len(args) {
			return "", fmt.Errorf("%s needs a value", flag)
		}
		return args[i], nil
	}
	var err error
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-uddi":
			i++
			if a.uddiURL, err = take(i, "-uddi"); err != nil {
				return nil, err
			}
		case "-seed":
			i++
			if a.seed, err = take(i, "-seed"); err != nil {
				return nil, err
			}
		case "-name":
			i++
			if a.name, err = take(i, "-name"); err != nil {
				return nil, err
			}
		case "-expr":
			i++
			if a.expr, err = take(i, "-expr"); err != nil {
				return nil, err
			}
		case "-op":
			i++
			if a.op, err = take(i, "-op"); err != nil {
				return nil, err
			}
		case "-timeout":
			i++
			v, err := take(i, "-timeout")
			if err != nil {
				return nil, err
			}
			if a.timeout, err = time.ParseDuration(v); err != nil {
				return nil, fmt.Errorf("bad -timeout: %v", err)
			}
		default:
			k, v, ok := strings.Cut(args[i], "=")
			if !ok {
				return nil, fmt.Errorf("unexpected argument %q", args[i])
			}
			a.params = append(a.params, wspeer.P(k, v))
		}
	}
	if a.name == "" {
		a.name = "*"
	}
	if a.uddiURL == "" && a.seed == "" {
		return nil, fmt.Errorf("one of -uddi or -seed is required")
	}
	switch a.cmd {
	case "find", "describe", "invoke":
	default:
		return nil, fmt.Errorf("unknown command %q", a.cmd)
	}
	if a.cmd == "invoke" && a.op == "" {
		return nil, fmt.Errorf("invoke needs -op")
	}
	return a, nil
}

func main() {
	a, err := parseCLI(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "wspeer: %v\n", err)
		usage()
	}
	cmd, op, params := a.cmd, a.op, a.params

	ctx, cancel := context.WithTimeout(context.Background(), a.timeout)
	defer cancel()
	peer, cleanup := buildPeer(a.uddiURL, a.seed)
	defer cleanup()

	q := a.query()

	switch cmd {
	case "find":
		infos, err := peer.Client().Locate(ctx, q)
		if err != nil && len(infos) == 0 {
			log.Fatalf("wspeer: %v", err)
		}
		for _, info := range infos {
			fmt.Printf("%-24s %-8s %s\n", info.Name, info.Locator, info.Endpoint)
		}
		if len(infos) == 0 {
			fmt.Println("no services found")
		}
	case "describe":
		info := locate(ctx, peer, q)
		fmt.Printf("service %s\n  endpoint  %s\n  located via %s\n  operations:\n", info.Name, info.Endpoint, info.Locator)
		for _, pt := range info.Definitions.PortTypes {
			for _, o := range pt.Operations {
				kind := "request/response"
				if o.OneWay() {
					kind = "one-way"
				}
				fmt.Printf("    %-20s %-18s %s\n", o.Name, kind, o.Doc)
			}
		}
	case "invoke":
		info := locate(ctx, peer, q)
		inv, err := peer.Client().NewInvocation(info)
		if err != nil {
			log.Fatalf("wspeer: %v", err)
		}
		res, err := inv.Invoke(ctx, op, params...)
		if err != nil {
			log.Fatalf("wspeer: invoke: %v", err)
		}
		if res == nil {
			fmt.Println("(one-way request accepted)")
			return
		}
		fmt.Printf("%s\n", xmlutil.Marshal(res.Wrapper()))
	default:
		usage()
	}
}

func locate(ctx context.Context, peer *wspeer.Peer, q wspeer.ServiceQuery) *wspeer.ServiceInfo {
	info, err := peer.Client().LocateOne(ctx, q)
	if err != nil {
		log.Fatalf("wspeer: locating %q: %v", q.QueryName(), err)
	}
	return info
}

func buildPeer(uddiURL, seed string) (*wspeer.Peer, func()) {
	peer := wspeer.NewPeer()
	var cleanups []func()
	if uddiURL != "" {
		b, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: uddiURL})
		if err != nil {
			log.Fatalf("wspeer: %v", err)
		}
		b.Attach(peer)
		cleanups = append(cleanups, func() { b.Close() })
	}
	if seed != "" {
		node, err := wspeer.NewTCPP2PSPeer("127.0.0.1:0", false, strings.Split(seed, ",")...)
		if err != nil {
			log.Fatalf("wspeer: %v", err)
		}
		b, err := wspeer.NewP2PSBinding(wspeer.P2PSOptions{Peer: node})
		if err != nil {
			log.Fatalf("wspeer: %v", err)
		}
		b.Attach(peer)
		cleanups = append(cleanups, func() { node.Close() })
	}
	return peer, func() {
		for _, c := range cleanups {
			c()
		}
	}
}
