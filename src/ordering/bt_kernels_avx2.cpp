// AVX2 (and, where the CPU offers it, AVX-512 vpopcntq) kernel tier.
//
// CMake compiles this TU with -mavx2 into a separate object target and
// defines NOCBT_HAVE_AVX2_TU for the registry, which then registers the
// backend; available() still gates on runtime CPUID so a binary built with
// the TU stays runnable (auto-dispatch skips the tier) on CPUs without
// AVX2. Everything here computes the exact same integer sums as the scalar
// word kernels — the differential suites pin that — so tier selection can
// never shift a campaign report.
//
// Kernel shape: a window's sequence BT is sum_i popcount(v[i] ^ v[i+1])
// over format-masked values. Values are first narrowed (fixed-8) or copied
// (float-32) into a contiguous per-thread byte scratch with zero padding,
// where "XOR with the next value" becomes "XOR with the buffer shifted by
// one value's bytes". Unaligned 256-bit pair loads + a vpshufb nibble-LUT
// byte popcount folded with psadbw then cover 32 byte-pairs per step
// (AVX-512: 64 with a native vpopcntq), a uint64 loop covers 8, and one
// masked word handles the ragged tail exactly.
//
// Chain shape: each pick of the greedy min-XOR chain is one pass over
// every lane of the window, with no erase. A lane's key is
// (distance << shift) | index and a chained lane holds all-ones, so an
// unsigned min over the keys is the least distance and, among equal
// distances, the lowest index — the scalar scan's first strict minimum.
// Fixed-8 windows of up to 4096 values take 16-bit keys (distance <= 8 in
// bits 12-15); longer ones, and float-32, take 32-bit keys (distance <= 32
// in bits 26-31), whose byte-LUT popcount is folded by maddubs/madd.
// Windows past 2^26 values take the scalar scan.

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/bitops.h"
#include "ordering/bt_kernel_backend.h"
#include "ordering/bt_kernels.h"

#if !defined(__AVX2__)
#error "bt_kernels_avx2.cpp must be compiled with -mavx2 (see src/ordering/CMakeLists.txt)"
#endif

#include <immintrin.h>

namespace nocbt::ordering::detail_avx2 {

namespace {

/// Scratch bytes appended past the live data so the masked tail load of
/// the pair kernel (up to 8 bytes starting vb bytes past the last pair)
/// never reads out of bounds.
constexpr std::size_t kScratchPad = 64;

/// Per-thread byte scratch holding the narrowed/copied value stream.
std::vector<std::uint8_t>& byte_scratch() {
  thread_local std::vector<std::uint8_t> buf;
  return buf;
}

/// Bytes per transmitted value (fixed-8 -> 1, float-32 -> 4).
std::size_t value_bytes(DataFormat format) noexcept {
  return value_bits(format) / 8;
}

/// Narrow (or copy) `patterns` into the thread scratch as a contiguous
/// masked byte stream and return its base pointer. The scratch keeps
/// kScratchPad readable bytes past the end.
const std::uint8_t* load_scratch(std::span<const std::uint32_t> patterns,
                                 DataFormat format) {
  std::vector<std::uint8_t>& buf = byte_scratch();
  const std::size_t vb = value_bytes(format);
  const std::size_t bytes = patterns.size() * vb;
  if (buf.size() < bytes + kScratchPad) buf.resize(bytes + kScratchPad);
  if (vb == 1) {
    // u32 -> u8 narrowing loop; with -mavx2 the compiler turns this into
    // packed truncation, and the cast is the 8-bit mask.
    std::uint8_t* out = buf.data();
    for (std::size_t i = 0; i < patterns.size(); ++i)
      out[i] = static_cast<std::uint8_t>(patterns[i]);
  } else if (bytes != 0) {
    // 32-bit values carry all their bits: the byte stream is the values'
    // own little-endian bytes. (An empty span's data() may be null, which
    // memcpy must not see even for zero bytes.)
    std::memcpy(buf.data(), patterns.data(), bytes);
  }
  return buf.data();
}

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Per-byte popcount of a 256-bit lane via the classic vpshufb nibble LUT.
__m256i popcount_bytes(__m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, nibble);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), nibble);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// sum_{i in [0, pair_bytes)} popcount(buf[i] ^ buf[i + vb]) — the byte
/// form of "stream XOR (stream >> one value)". AVX2 main loop, uint64
/// middle loop, masked-word tail.
std::uint64_t pair_popcount_avx2(const std::uint8_t* buf,
                                 std::size_t pair_bytes,
                                 std::size_t vb) noexcept {
  std::uint64_t total = 0;
  std::size_t i = 0;
  if (pair_bytes >= 32) {
    __m256i acc = _mm256_setzero_si256();
    const __m256i zero = _mm256_setzero_si256();
    for (; i + 32 <= pair_bytes; i += 32) {
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(buf + i));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(buf + i + vb));
      // psadbw against zero folds the per-byte counts into four u64 lanes
      // without ever overflowing the u8 counters.
      acc = _mm256_add_epi64(
          acc, _mm256_sad_epu8(popcount_bytes(_mm256_xor_si256(a, b)), zero));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  for (; i + 8 <= pair_bytes; i += 8)
    total += static_cast<std::uint64_t>(
        popcount64(load_u64(buf + i) ^ load_u64(buf + i + vb)));
  if (i < pair_bytes) {
    // Ragged tail: one padded word, masked down to the live pair bytes.
    const std::uint64_t x = load_u64(buf + i) ^ load_u64(buf + i + vb);
    const auto live = static_cast<unsigned>((pair_bytes - i) * 8);
    total += static_cast<std::uint64_t>(popcount64(x & low_mask(live)));
  }
  return total;
}

#ifdef NOCBT_HAVE_AVX512_ATTR
__attribute__((target("avx512f,avx512vpopcntdq"))) std::uint64_t
pair_popcount_avx512(const std::uint8_t* buf, std::size_t pair_bytes,
                     std::size_t vb) noexcept {
  std::uint64_t total = 0;
  std::size_t i = 0;
  if (pair_bytes >= 64) {
    __m512i acc = _mm512_setzero_si512();
    for (; i + 64 <= pair_bytes; i += 64) {
      const __m512i a = _mm512_loadu_si512(buf + i);
      const __m512i b = _mm512_loadu_si512(buf + i + vb);
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_xor_si512(a, b)));
    }
    // Manual lane fold: _mm512_reduce_add_epi64 trips GCC 12's
    // -Wmaybe-uninitialized on the _mm256_undefined_si256 inside it.
    alignas(64) std::uint64_t lanes[8];
    _mm512_store_si512(lanes, acc);
    for (const std::uint64_t lane : lanes) total += lane;
  }
  for (; i + 8 <= pair_bytes; i += 8)
    total += static_cast<std::uint64_t>(
        popcount64(load_u64(buf + i) ^ load_u64(buf + i + vb)));
  if (i < pair_bytes) {
    const std::uint64_t x = load_u64(buf + i) ^ load_u64(buf + i + vb);
    const auto live = static_cast<unsigned>((pair_bytes - i) * 8);
    total += static_cast<std::uint64_t>(popcount64(x & low_mask(live)));
  }
  return total;
}
#endif  // NOCBT_HAVE_AVX512_ATTR

using PairPopcountFn = std::uint64_t (*)(const std::uint8_t*, std::size_t,
                                         std::size_t) noexcept;

/// Key layouts of the chain scan: the index field's width, hence the
/// longest window each can chain.
constexpr unsigned kKey16IndexBits = 12;
constexpr unsigned kKey32IndexBits = 26;
constexpr std::size_t kKey16MaxWindow = std::size_t{1} << kKey16IndexBits;
constexpr std::size_t kKey32MaxWindow = std::size_t{1} << kKey32IndexBits;

/// Per-thread lane scratch of the chain scan: the masked values, then the
/// key bases (the lane's index, or all-ones once chained). Padding lanes
/// past the window hold a chained base, so a pass never reads them as
/// candidates.
template <typename Lane>
Lane* chain_scratch(std::size_t lanes) {
  thread_local std::vector<Lane> buf;
  if (buf.size() < 2 * lanes) buf.resize(2 * lanes);
  return buf.data();
}

/// The chain over 16-bit keys, for windows of <= 4096 values of <= 8 bits.
/// Each lane's value is zero-extended to 16 bits, so the byte-LUT popcount
/// of value XOR current is the lane's distance with no fold.
void chain_keys16(std::span<const std::uint32_t> window,
                  std::span<std::uint32_t> perm) {
  const std::size_t n = window.size();
  const std::size_t lanes = (n + 15) & ~std::size_t{15};
  std::uint16_t* const value = chain_scratch<std::uint16_t>(lanes);
  std::uint16_t* const base = value + lanes;
  for (std::size_t i = 0; i < lanes; ++i) {
    value[i] = i < n ? static_cast<std::uint8_t>(window[i]) : 0;
    base[i] = i < n ? static_cast<std::uint16_t>(i) : 0xFFFF;
  }
  // An all-ones predecessor makes the first pick the seed: the least
  // distance from all-ones is the most '1' bits, ties to the lowest index.
  std::uint16_t current = 0xFF;
  for (std::size_t step = 0; step < n; ++step) {
    const __m256i cur = _mm256_set1_epi16(static_cast<short>(current));
    __m256i best = _mm256_set1_epi16(-1);
    for (std::size_t i = 0; i < lanes; i += 16) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(value + i));
      const __m256i dist = popcount_bytes(_mm256_xor_si256(v, cur));
      const __m256i key = _mm256_or_si256(
          _mm256_slli_epi16(dist, kKey16IndexBits),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i)));
      best = _mm256_min_epu16(best, key);
    }
    const __m128i half = _mm_min_epu16(_mm256_castsi256_si128(best),
                                       _mm256_extracti128_si256(best, 1));
    const auto key =
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_minpos_epu16(half)));
    const std::uint32_t index = key & (kKey16MaxWindow - 1);
    perm[step] = index;
    current = value[index];
    base[index] = 0xFFFF;
  }
}

/// The chain over 32-bit keys, for windows of <= 2^26 values of any width.
/// The per-byte popcounts of value XOR current fold into 32-bit lanes
/// through maddubs (byte pairs) and madd (word pairs).
void chain_keys32(std::span<const std::uint32_t> window, DataFormat format,
                  std::span<std::uint32_t> perm) {
  const std::size_t n = window.size();
  const std::size_t lanes = (n + 7) & ~std::size_t{7};
  const auto mask = static_cast<std::uint32_t>(low_mask(value_bits(format)));
  std::uint32_t* const value = chain_scratch<std::uint32_t>(lanes);
  std::uint32_t* const base = value + lanes;
  for (std::size_t i = 0; i < lanes; ++i) {
    value[i] = i < n ? window[i] & mask : 0;
    base[i] = i < n ? static_cast<std::uint32_t>(i) : 0xFFFFFFFFu;
  }
  const __m256i ones8 = _mm256_set1_epi8(1);
  const __m256i ones16 = _mm256_set1_epi16(1);
  std::uint32_t current = mask;  // the seed pick, as in chain_keys16
  for (std::size_t step = 0; step < n; ++step) {
    const __m256i cur = _mm256_set1_epi32(static_cast<int>(current));
    __m256i best = _mm256_set1_epi32(-1);
    for (std::size_t i = 0; i < lanes; i += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(value + i));
      const __m256i dist = _mm256_madd_epi16(
          _mm256_maddubs_epi16(popcount_bytes(_mm256_xor_si256(v, cur)),
                               ones8),
          ones16);
      const __m256i key = _mm256_or_si256(
          _mm256_slli_epi32(dist, kKey32IndexBits),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i)));
      best = _mm256_min_epu32(best, key);
    }
    __m128i half = _mm_min_epu32(_mm256_castsi256_si128(best),
                                 _mm256_extracti128_si256(best, 1));
    half = _mm_min_epu32(half, _mm_shuffle_epi32(half, 0x4E));
    half = _mm_min_epu32(half, _mm_shuffle_epi32(half, 0xB1));
    const auto key = static_cast<std::uint32_t>(_mm_cvtsi128_si32(half));
    const std::uint32_t index = key & (kKey32MaxWindow - 1);
    perm[step] = index;
    current = value[index];
    base[index] = 0xFFFFFFFFu;
  }
}

class Avx2Backend final : public BtKernelBackend {
 public:
  Avx2Backend() {
#ifdef NOCBT_HAVE_AVX512_ATTR
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vpopcntdq"))
      pair_popcount_ = &pair_popcount_avx512;
#endif
  }

  std::string_view name() const noexcept override { return "avx2"; }
  std::string_view description() const noexcept override {
    return "256-bit vpshufb-LUT popcount over byte-narrowed windows "
           "(AVX-512 vpopcntq inner loops where the CPU supports them); "
           "min-key chain scan over 16- or 32-bit keys";
  }
  bool available() const noexcept override {
    return __builtin_cpu_supports("avx2") != 0;
  }
  int priority() const noexcept override { return 20; }

  std::uint64_t sequence_bt(std::span<const std::uint32_t> window,
                            DataFormat format) const override {
    if (window.size() < 2) return 0;
    const std::uint8_t* buf = load_scratch(window, format);
    const std::size_t vb = value_bytes(format);
    return pair_popcount_(buf, (window.size() - 1) * vb, vb);
  }

  void sequence_bt_batch(std::span<const std::uint32_t> patterns,
                         DataFormat format, std::size_t window_values,
                         std::span<std::uint64_t> out) const override {
    check_batch_args(patterns.size(), window_values, out.size());
    // One narrowing pass over the whole span; every window then scores
    // off its slice of the shared byte stream.
    const std::uint8_t* buf = load_scratch(patterns, format);
    const std::size_t vb = value_bytes(format);
    for (std::size_t w = 0; w < out.size(); ++w) {
      const std::size_t start = w * window_values;
      const std::size_t len = std::min(window_values, patterns.size() - start);
      out[w] = len < 2 ? 0
                       : pair_popcount_(buf + start * vb, (len - 1) * vb, vb);
    }
  }

  void greedy_chain(std::span<const std::uint32_t> window, DataFormat format,
                    std::span<std::uint32_t> perm) const override {
    check_chain_args(window.size(), perm.size());
    if (value_bits(format) <= 8 && window.size() <= kKey16MaxWindow)
      chain_keys16(window, perm);
    else if (window.size() <= kKey32MaxWindow)
      chain_keys32(window, format, perm);
    else
      BtKernelBackend::greedy_chain(window, format, perm);
  }

 private:
  PairPopcountFn pair_popcount_ = &pair_popcount_avx2;
};

}  // namespace

std::unique_ptr<BtKernelBackend> make_avx2_backend() {
  return std::make_unique<Avx2Backend>();
}

}  // namespace nocbt::ordering::detail_avx2
