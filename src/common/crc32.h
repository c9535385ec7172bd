// CRC-32C (Castagnoli). Used by TeraValidate-style output checking,
// HDFS-lite block checksums and the shuffle's segment checksums.
//
// crc32c() runs the SSE4.2 `crc32` instruction when the CPU has it and a
// byte-at-a-time table loop otherwise; the path is chosen once, from the
// CPU's feature bits, and both give bit-identical results.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace hmr {

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);
std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0);

// The two paths behind crc32c(), exposed so tests can compare them.
// crc32c_table is the portable reference; crc32c_hardware aborts unless
// crc32c_hardware_supported().
std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                           std::uint32_t seed = 0);
bool crc32c_hardware_supported();
std::uint32_t crc32c_hardware(std::span<const std::uint8_t> data,
                              std::uint32_t seed = 0);

}  // namespace hmr
