package amnet

import "fmt"

// Transport is the factory the runtime builds its fabric through: asked
// for an n-node cluster, it returns a connected Network whose local
// endpoints are ready for handler registration. Options.Transport takes
// one, so bootstrap code selects a fabric by value (a ChanConfig, a
// tcpnet.Config) instead of calling transport-specific constructors.
//
// A Transport describes only the local share of the fabric: the
// in-process transports host all n endpoints, while a multi-process
// transport (tcpnet.Config with Local set) binds the local nodes and
// dials the rest.
type Transport interface {
	// Connect builds the fabric for an n-node cluster.
	Connect(n int) (Network, error)
}

// Fixed adapts an already-built (or wrapped) Network to Transport, for
// callers that construct the fabric themselves — a fault-injecting
// wrapper, a test double. The network stays caller-owned: the runtime
// validates its shape but does not close it.
func Fixed(nw Network) FixedTransport { return FixedTransport{Net: nw} }

// FixedTransport is Fixed's Transport; Connect returns the wrapped
// network as-is (the runtime checks the endpoint count).
type FixedTransport struct{ Net Network }

// Connect implements Transport.
func (t FixedTransport) Connect(int) (Network, error) { return t.Net, nil }

// Connect implements Transport: an in-process channel network of n
// endpoints. A Nodes count already set in the config must agree with n.
func (c ChanConfig) Connect(n int) (Network, error) {
	if c.Nodes == 0 {
		c.Nodes = n
	}
	if c.Nodes != n {
		return nil, fmt.Errorf("amnet: transport configured for %d nodes, cluster wants %d", c.Nodes, n)
	}
	return NewChanNetwork(c)
}

// headerBytes is the accounted fixed cost of a message: dst, src, handler,
// four 8-byte scalar arguments and a length word.
const headerBytes = 4 + 4 + 2 + 4*8 + 4
