#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "common/status.h"

namespace hmr {
namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected CRC-32C

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = make_table();

// Both kernels update a raw (pre-inverted) CRC register; crc32c()
// applies the standard ~seed / ~result framing around them.
std::uint32_t table_update(const std::uint8_t* p, std::size_t n,
                           std::uint32_t crc) {
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ kTable[(crc ^ *p) & 0xff];
  return crc;
}

using UpdateFn = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                   std::uint32_t);

#if defined(__x86_64__)
// The instruction computes exactly the reflected Castagnoli update the
// table loop does, 8 bytes per step.
__attribute__((target("sse4.2"))) std::uint32_t hardware_update(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  std::uint64_t wide = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);  // unaligned load
    wide = _mm_crc32_u64(wide, word);
  }
  crc = static_cast<std::uint32_t>(wide);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#else
// No hardware path off x86-64: crc32c_hardware_supported() is false, so
// this alias is never chosen.
constexpr UpdateFn hardware_update = table_update;
#endif

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  // Chosen on first use; a function-local static initializes once and
  // thread-safely, so parallel work events may race to the first call.
  static const UpdateFn update =
      crc32c_hardware_supported() ? hardware_update : table_update;
  return ~update(data.data(), data.size(), ~seed);
}

std::uint32_t crc32c(std::string_view data, std::uint32_t seed) {
  return crc32c(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(data.data()), data.size()),
      seed);
}

std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                           std::uint32_t seed) {
  return ~table_update(data.data(), data.size(), ~seed);
}

bool crc32c_hardware_supported() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

std::uint32_t crc32c_hardware(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  HMR_CHECK_MSG(crc32c_hardware_supported(),
                "crc32c_hardware: CPU lacks SSE4.2");
  return ~hardware_update(data.data(), data.size(), ~seed);
}

}  // namespace hmr
