package runtime

import (
	"errors"

	"btr/internal/evidence"
	"btr/internal/network"
)

// Evidence distribution (§4.3): flooding on the reserved bandwidth class.
// Every forwarder endorses the blob with its own signature, validates
// before forwarding, and rate-limits per neighbor — so (a) distribution
// latency is bounded regardless of foreground load, (b) a node that
// injects invalid evidence hands every neighbor a proof against itself,
// and (c) a flooding adversary cannot exhaust verification capacity.

// forwardEvidence floods ev to all neighbors, endorsed by this node.
//
// This is the encode-once fast path: decoded (or Canon'd) evidence
// returns its retained wire bytes from Encode, and the endorsement seal +
// frame come from the registry's seal memo — so re-flooding a blob this
// node (or a same-seed trial anywhere in the process) has sealed before
// allocates nothing and performs no signing.
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
	junk := make([]byte, 200)
	for i := range junk {
		junk[i] = byte(n.cfg.Kernel.RNG().Uint64())
	}
	payload := evidencePayload(n.cfg.Registry.Seal(n.id, junk))
	for i := 0; i < count; i++ {
		for _, nb := range n.cfg.Net.Topology().Neighbors(n.id) {
			n.cfg.Net.SendDirect(n.id, nb, network.ClassEvidence, payload)
		}
	}
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
	inner, err := evidence.Decode(wrapper.Body)
	if err != nil {
		// The endorser signed an undecodable blob: proof against it.
		n.EvidenceRejected++
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
	if verr := n.validator().Validate(inner); verr != nil {
		n.EvidenceRejected++
		// Mode-dependent kinds (timing) can fail validation during a
		// transition without the endorser being faulty; don't convert
		// those into bogus-endorsement proofs. Everything else validates
		// against mode-independent facts (signatures, digests,
		// re-execution), so a failure there convicts the endorser.
		if inner.Kind != evidence.KindTiming && !errors.Is(verr, errModeSkew) {
			n.raiseEvidence(evidence.Evidence{
				Kind: evidence.KindBogus, Accused: wrapper.Signer, Reporter: n.id,
				DetectedAt: n.cfg.Kernel.Now(), Primary: wrapper,
			})
		}
		return
	}
	n.seenEvidence[id] = true
	n.EvidenceAccepted++
	if n.cfg.OnEvidence != nil {
		n.cfg.OnEvidence(n.id, inner, n.cfg.Kernel.Now())
	}
	n.actOnEvidence(inner)
	n.forwardEvidence(inner)
}

// errModeSkew is a sentinel for validation failures that may stem from the
// validator's own mode lagging the reporter's (reserved for future use;
// timing evidence is currently the only mode-dependent kind and is
// special-cased by kind).
var errModeSkew = errors.New("runtime: validation depends on mode state")
