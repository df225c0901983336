// The thesis' observation vocabulary for two-protocol selection
// policies, for the policy unit tests: observe_tts(p, contended) is a
// protocol-0 (TTS-role) observation with drift +1 when contended,
// observe_queue(p, empty) a protocol-1 (queue-role) observation with
// drift -1 when empty. Optional trailing arguments are the cost sample
// (and socket bit). Each returns "switch now": the policy named the
// other protocol.
#pragma once

#include "core/policy.hpp"

namespace reactive {

template <typename Pol, typename... Sample>
bool observe_tts(Pol& p, bool contended, Sample... sample)
{
    return p.next_protocol(ProtocolSignal{0, contended ? +1 : 0},
                           sample...) != 0;
}

template <typename Pol, typename... Sample>
bool observe_queue(Pol& p, bool empty, Sample... sample)
{
    return p.next_protocol(ProtocolSignal{1, empty ? -1 : 0}, sample...) != 1;
}

}  // namespace reactive
