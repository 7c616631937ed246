// pcap interoperability.
//
// The study's raw inputs are pcap files captured at authoritative servers
// (ENTRADA ingests exactly that). This module writes a capture stream as a
// classic libpcap file — fabricating Ethernet/IPv4/IPv6/UDP/TCP headers
// around re-encoded DNS queries — and reads such files back, so traces
// interoperate with tcpdump/wireshark/ENTRADA-shaped tooling.
//
// Export writes the *query* packet of each capture record (that is what
// the vantage point's enrichment pipeline keys on); response-derived
// fields (rcode, TC, response size) ride in a trailing comment record of
// the columnar sidecar when needed — pcap round trips are therefore
// lossy by design and documented as such: time, addresses, transport,
// qname/qtype/EDNS survive; response metadata does not.
#pragma once

#include <optional>
#include <string>

#include "base/io.h"
#include "capture/record.h"

namespace clouddns::capture {

/// Serializes query packets as a libpcap (v2.4, LINKTYPE_ETHERNET) byte
/// stream.
[[nodiscard]] std::vector<std::uint8_t> EncodePcap(
    const CaptureBuffer& records);

/// Parses a libpcap byte stream produced by EncodePcap (or any capture of
/// UDP/TCP DNS queries over Ethernet). Non-DNS packets are skipped.
/// Returns nullopt on a malformed file header.
[[nodiscard]] std::optional<CaptureBuffer> DecodePcap(
    const std::vector<std::uint8_t>& bytes);

/// Atomic, checked pcap write. By default the libpcap bytes are wrapped
/// in the checksummed base::io frame (tag kTagPcap) — the simulator's own
/// artifacts get integrity protection. Pass `framed = false` for a raw
/// libpcap file that tcpdump/wireshark open directly (cdnstool
/// `export-pcap --raw`); raw files get atomicity but no checksums.
[[nodiscard]] base::io::IoStatus WritePcapFileStatus(
    const std::string& path, const CaptureBuffer& records, bool framed = true);

/// Reads either shape: framed files are verified then unwrapped; an
/// unframed file is decoded as raw libpcap (tcpdump captures for
/// `cdnstool import-pcap`). This is the only reader that accepts
/// unframed bytes.
[[nodiscard]] base::io::IoStatus ReadPcapFileStatus(const std::string& path,
                                                    CaptureBuffer& out);

}  // namespace clouddns::capture
