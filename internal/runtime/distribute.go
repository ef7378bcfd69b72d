package runtime

import (
	"btr/internal/evidence"
	"btr/internal/network"
	"btr/internal/sig"
	"btr/internal/sim"
)

// Evidence distribution (§4.3): flooding on the reserved bandwidth class.
// Every forwarder endorses the blob with its own signature, validates
// before forwarding, and rate-limits per neighbor — so (a) distribution
// latency is bounded regardless of foreground load, (b) a node that
// injects invalid evidence hands every neighbor a proof against itself,
// and (c) a flooding adversary cannot exhaust verification capacity.

// forwardEvidence floods ev to all neighbors, endorsed by this node.
//
// This is the encode-once fast path: decoded (or locally sealed)
// evidence returns its retained wire bytes from Encode, and the
// endorsement frame comes from the registry's seal memo — so re-flooding
// a blob this node (or a same-seed trial anywhere in the process) has
// endorsed before allocates nothing and performs no signing. A miss is
// sealed in place in one exact-size allocation, like every envelope.
func (n *Node) forwardEvidence(ev evidence.Evidence) {
	if b := n.behavior; b != nil && b.SuppressForwarding {
		return
	}
	payload := n.cfg.Registry.SealedPayload(n.id, msgEvidence, ev.Encode())
	for _, nb := range n.cfg.Net.Topology().Neighbors(n.id) {
		n.cfg.Net.SendDirect(n.id, nb, network.ClassEvidence, payload)
	}
}

// floodBogus implements the DoS adversary: invalid evidence blobs signed
// by this node, sprayed at every neighbor. The "re-sent identical
// payload" amortization is local: the junk is sealed and framed once and
// sprayed count x neighbors times. It deliberately does NOT go through
// the seal memo — every period's junk is fresh random bytes, so each
// entry would be dead weight whose only effect is churning honest cached
// seals out of the capped shards. The attacker pays for its own spray.
func (n *Node) floodBogus(count int) {
	payload := bogusFrame(n.cfg.Registry, n.id, n.cfg.Kernel.RNG())
	for i := 0; i < count; i++ {
		for _, nb := range n.cfg.Net.Topology().Neighbors(n.id) {
			n.cfg.Net.SendDirect(n.id, nb, network.ClassEvidence, payload)
		}
	}
}

const bogusJunk = 200 // bytes of junk in a bogus-flood blob

// bogusFrame draws bogusJunk bytes from rng straight into an evidence
// frame and seals them there as signer: one exact-size allocation.
func bogusFrame(reg *sig.Registry, signer network.NodeID, rng *sim.RNG) []byte {
	p := append(make([]byte, 0, 1+sig.EnvelopeSize(bogusJunk)), msgEvidence)
	p = sig.AppendEnvelopeHeader(p, signer, bogusJunk)
	for i := 0; i < bogusJunk; i++ {
		p = append(p, byte(rng.Uint64()))
	}
	_, p = reg.SignAppended(p, 1)
	return p
}

// onEvidenceMessage handles an incoming evidence frame from a neighbor.
func (n *Node) onEvidenceMessage(m *network.Message) {
	if n.faults.Contains(m.From) {
		return // isolate convicted nodes: no further verification work
	}
	// Rate limit per neighbor per period: bounded verification work no
	// matter how hard a neighbor floods. This is the only place evidence
	// signatures are checked on every transport (no transport verifies
	// ahead of it), so the bound holds on Network and TCPBus alike;
	// TestFloodVerificationBudgetedLive pins it live.
	n.evBudget[m.From]++
	if n.evBudget[m.From] > n.cfg.EvidenceRateLimit {
		n.EvidenceDropped++
		return
	}
	wrapper, err := parseEvidencePayload(m.Payload)
	if err != nil {
		return // unframeable: MAC-level garbage
	}
	if !n.cfg.Registry.Check(wrapper) {
		return // endorsement signature invalid: cannot attribute, drop
	}
	inner, err := evidence.Parse(wrapper.Body)
	if err != nil {
		// The endorser signed an undecodable blob: proof against it.
		n.raiseEvidence(evidence.Evidence{
			Kind: evidence.KindBogus, Accused: wrapper.Signer, Reporter: n.id,
			DetectedAt: n.cfg.Kernel.Now(), Primary: wrapper,
		})
		return
	}
	id := inner.ID()
	if n.seenEvidence[id] {
		return
	}
	if n.validator().Validate(inner) != nil {
		// Mode-dependent kinds (timing) can fail validation during a
		// transition without the endorser being faulty; don't convert
		// those into bogus-endorsement proofs. Everything else validates
		// against mode-independent facts (signatures, digests,
		// re-execution), so a failure there convicts the endorser.
		if inner.Kind != evidence.KindTiming {
			n.raiseEvidence(evidence.Evidence{
				Kind: evidence.KindBogus, Accused: wrapper.Signer, Reporter: n.id,
				DetectedAt: n.cfg.Kernel.Now(), Primary: wrapper,
			})
		}
		return
	}
	n.seenEvidence[id] = true
	n.accept(inner)
}
