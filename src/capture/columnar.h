// Columnar serialization of capture streams, mirroring ENTRADA's choice of
// a column-oriented warehouse format (Parquet) for DNS traffic:
//   - timestamps are delta-encoded varints (queries arrive nearly sorted),
//   - qnames are dictionary-encoded (popularity skew makes them repeat),
//   - every other column is a varint/byte stream of its own.
// The layout is:  magic | version | record count | per-column blocks,
// each block prefixed by a column id and byte length, so readers can skip
// columns they do not need.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "base/io.h"
#include "capture/record.h"

namespace clouddns::capture {

/// Serializes `records` into the columnar byte format.
[[nodiscard]] std::vector<std::uint8_t> EncodeColumnar(
    const CaptureBuffer& records);

/// Parses a columnar byte buffer. Returns nullopt on any malformation
/// (bad magic, truncated column, dictionary index out of range, ...).
[[nodiscard]] std::optional<CaptureBuffer> DecodeColumnar(
    const std::vector<std::uint8_t>& bytes);

/// File helpers. Writes go through base::io: the columnar payload is
/// wrapped in the checksummed frame (tag kTagCapture) and landed with
/// write-to-temp + fsync + atomic rename. Reads verify the frame before
/// the columnar decoder runs; an unframed file fails with kBadFrame.
[[nodiscard]] base::io::IoStatus WriteCaptureFileStatus(
    const std::string& path, const CaptureBuffer& records);
[[nodiscard]] base::io::IoStatus ReadCaptureFileStatus(const std::string& path,
                                                       CaptureBuffer& out);

}  // namespace clouddns::capture
