// The expanded-matrix tuple of PB-SpGEMM and the four physical formats of
// its stream — the one module that knows how a format lays out bytes.
//
// Cˆ entries are (rowid, colid, value) conceptually.  The pipeline carries
// them in one of four layouts, chosen per plan by the symbolic phase
// (pb/symbolic.hpp, pick_format):
//
//  * kWide — array-of-structs `Tuple{u64 key, f64 val}`: the two 4-byte
//    indices packed into one 8-byte key, 16 bytes per tuple — the `b` the
//    paper's arithmetic-intensity model charges per COO nonzero
//    (Sec. II-C).  Sorting by the key is lexicographic (row, col) order,
//    which is exactly CSR order.
//
//  * kNarrow — structure-of-arrays `u32 key[] + f64 val[]`, 12 bytes per
//    tuple: inside a bin only the bin-relative row bits and the column
//    bits vary, so whenever row_bits + col_bits <= 32 the key shrinks to
//    `(local_row << col_bits) | col`.  This extends the paper's "squeeze
//    keys into 4-byte integers" trick from the sort phase to the whole
//    stream: expand writes 12 B/tuple, the sort's histogram passes read
//    4 B/tuple, and conversion reconstructs the global (row, col) from the
//    bin geometry while streaming.  Within a bin ascending narrow-key
//    order equals ascending (row, col) order, so the formats produce
//    identical CSR.
//
//  * kKeyOnly — the 8-byte wide key with NO value array at all.  For a
//    value-free semiring (bool_or_and, or any registered semiring flagged
//    idempotent-structural) the value of every surviving entry is
//    determined by structure alone, so carrying values through the stream
//    is pure redundancy: expand writes only keys, compress is a pure
//    duplicate drop with no semiring add and no value scatter in the radix
//    passes, and conversion synthesizes the semiring's present-value
//    (1.0).  Because the key is the full global (row << 32) | col, the
//    format is legal for ANY bin geometry — no 32-bit fit constraint.
//
//  * kNarrowF32 — the narrow SoA stream with a 4-byte f32 value lane:
//    8 bytes per tuple for plans whose values are f32-representable or
//    whose op requests f32 precision.  Same fit constraint as kNarrow.
//
// Each format is one stream policy below: a view over the stream's lanes
// (WideStream, NarrowStream, KeyOnlyStream, F32Stream) that fixes the key
// codec, the value lane, the tuples per 64 B line, the per-bin sort and
// the value load/store.  The phase kernels (expand, sort+compress,
// convert) are written once over a policy; `visit` is the single runtime
// dispatch from a TupleFormat to its policy.
#pragma once

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/aligned_buffer.hpp"
#include "common/radix_sort.hpp"
#include "common/types.hpp"
#include "pb/binning.hpp"

namespace pbs::pb {

struct Tuple {
  std::uint64_t key;
  value_t val;
};
static_assert(sizeof(Tuple) == kBytesPerTuple,
              "wide tuple must stay 16 bytes; the AI model depends on it");

/// Key-only format key type (the wide key, sans value array).
using wide_key_t = std::uint64_t;
/// Narrow-format key type.
using narrow_key_t = std::uint32_t;
/// Narrow-f32 value type.
using f32_val_t = float;

inline std::uint64_t make_key(index_t row, index_t col) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 32) |
         static_cast<std::uint32_t>(col);
}

inline index_t key_row(std::uint64_t key) {
  return static_cast<index_t>(key >> 32);
}

inline index_t key_col(std::uint64_t key) {
  return static_cast<index_t>(key & 0xFFFFFFFFu);
}

/// Narrow-key codec.  `col_bits` is fixed per plan (ceil_log2(ncols) <= 31
/// since ncols is a positive int32); `local_row` is the bin-relative row
/// (BinLayout::local_row / global_row map it to and from the rowid).
inline narrow_key_t make_narrow_key(index_t local_row, index_t col,
                                    int col_bits) {
  return (static_cast<narrow_key_t>(local_row) << col_bits) |
         static_cast<narrow_key_t>(col);
}

inline index_t narrow_key_local_row(narrow_key_t key, int col_bits) {
  return static_cast<index_t>(key >> col_bits);
}

inline index_t narrow_key_col(narrow_key_t key, int col_bits) {
  return static_cast<index_t>(key &
                              ((narrow_key_t{1} << col_bits) - 1u));
}

/// The bin geometry a key is decoded against: the stream's layout and
/// column width (SymbolicResult::layout / col_bits).  Global-key formats
/// never read it.
struct KeyGeometry {
  const BinLayout* layout = nullptr;
  int col_bits = 0;
};

/// Global key: (row << 32) | col.  It carries the coordinates outright, so
/// encoding and decoding ignore the bin geometry.
struct GlobalKey {
  using type = std::uint64_t;

  /// The row half of the key, built once per (A entry, B row) pair.
  static type row_key(const BinLayout& /*layout*/, index_t row,
                      int /*col_bits*/) {
    return static_cast<type>(static_cast<std::uint32_t>(row)) << 32;
  }
  /// The key's row bits: constant across one output row's run in a bin.
  static index_t row_bits(type key, const KeyGeometry& /*g*/) {
    return key_row(key);
  }
  static index_t global_row(index_t row_bits, int /*bin*/,
                            const KeyGeometry& /*g*/) {
    return row_bits;
  }
  static index_t col(type key, const KeyGeometry& /*g*/) {
    return key_col(key);
  }
};

/// Bin-relative key: (local_row << col_bits) | col — legal when the bin's
/// row bits plus col_bits fit 32 (pick_format decides).
struct BinKey {
  using type = std::uint32_t;

  static type row_key(const BinLayout& layout, index_t row, int col_bits) {
    return static_cast<type>(layout.local_row(row)) << col_bits;
  }
  static index_t row_bits(type key, const KeyGeometry& g) {
    return narrow_key_local_row(key, g.col_bits);
  }
  // Inverse of row_key's local row: rebuild the rowid from (bin, local).
  static index_t global_row(index_t local, int bin, const KeyGeometry& g) {
    return g.layout->global_row(bin, local);
  }
  static index_t col(type key, const KeyGeometry& g) {
    return narrow_key_col(key, g.col_bits);
  }
};

/// Global row of a key that lives in `bin`, under either codec.
template <typename Codec>
index_t decode_row(typename Codec::type key, int bin, const KeyGeometry& g) {
  return Codec::global_row(Codec::row_bits(key, g), bin, g);
}

namespace detail {

// Flush copy: when the destination is cache-line aligned and the block is
// whole lines, use non-temporal stores — full-line writes with no
// read-for-ownership traffic, which is what lets the expand phase approach
// STREAM bandwidth (paper Sec. III-C).  Symbolic pads bin regions so full
// flushes stay aligned; partial drain flushes fall back to memcpy.  Each
// lane of a stream (the AoS tuples, or the key and value arrays) is copied
// separately.
template <typename T>
inline void flush_copy(T* dst, const T* src, int count) {
  const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
#if defined(__SSE2__)
  if ((reinterpret_cast<std::uintptr_t>(dst) & 63u) == 0 && bytes % 64 == 0) {
    const auto* s = reinterpret_cast<const __m128i*>(src);
    auto* d = reinterpret_cast<__m128i*>(dst);
    const std::size_t blocks = bytes / sizeof(__m128i);
    for (std::size_t i = 0; i < blocks; ++i)
      _mm_stream_si128(d + i, _mm_load_si128(s + i));
    return;
  }
#endif
  std::memcpy(dst, src, bytes);
}

template <typename T>
std::byte* as_bytes(T* p) {
  return reinterpret_cast<std::byte*>(p);
}

// Element width of a value lane; void is the absent lane.
template <typename V>
inline constexpr std::size_t lane_bytes = sizeof(V);
template <>
inline constexpr std::size_t lane_bytes<void> = 0;

}  // namespace detail

/// kWide: AoS `Tuple{u64 key, f64 val}`, 16 B per tuple.
struct WideStream {
  using Codec = GlobalKey;
  using key_type = Codec::type;
  static constexpr TupleFormat kFormat = TupleFormat::kWide;
  static constexpr bool kHasValues = true;
  static constexpr std::size_t kBytes = sizeof(Tuple);
  static constexpr int kLineTuples =
      static_cast<int>(kCacheLineBytes / sizeof(Tuple));
  /// Local-bin capacity granule.  AoS flushes move whole tuples whatever
  /// the count (non-line multiples take the memcpy path), so the capacity
  /// is not rounded: one-tuple local bins stay expressible for the
  /// Fig. 6a width sweep.
  static constexpr int kFlushQuantum = 1;

  Tuple* tuples = nullptr;

  static std::size_t bytes(std::size_t n) { return n * sizeof(Tuple); }
  static WideStream carve(std::byte* base, std::size_t /*n*/) {
    return {reinterpret_cast<Tuple*>(base)};
  }
  [[nodiscard]] WideStream at(nnz_t off) const { return {tuples + off}; }

  [[nodiscard]] key_type key(std::size_t i) const { return tuples[i].key; }
  [[nodiscard]] value_t val(std::size_t i) const { return tuples[i].val; }
  void set_val(std::size_t i, value_t v) const { tuples[i].val = v; }
  void store(std::size_t i, key_type k, value_t v) const {
    tuples[i] = Tuple{k, v};
  }
  void move(std::size_t src, std::size_t dst) const {
    tuples[dst] = tuples[src];
  }
  void copy_to(const WideStream& dst, int count) const {
    detail::flush_copy(dst.tuples, tuples, count);
  }
  /// Calls fn(begin, end) on the byte range of tuples [lo, hi).
  template <typename Fn>
  void for_each_lane(std::size_t lo, std::size_t hi, Fn&& fn) const {
    fn(detail::as_bytes(tuples + lo), detail::as_bytes(tuples + hi));
  }

  // The wide sort runs as SoA under the hood: the AoS bin is deinterleaved
  // into a u64 key + f64 value pair carved from the scratch, sorted with
  // radix_sort_lsd_kv (histogram and bit-scan passes read the 8 B keys
  // instead of streaming 16 B records) ping-ponging against the bin's own
  // storage, then reinterleaved back.  A scratch of `scratch_n` tuples
  // (16 B each) is exactly one key array + one value array of scratch_n,
  // so bin + scratch keep the same L2 footprint as an AoS sort.
  void sort(std::size_t len, const WideStream& scratch,
            std::size_t scratch_n) const {
    if (len < 2) return;
    std::byte* sbase = detail::as_bytes(scratch.tuples);
    auto* ks = reinterpret_cast<std::uint64_t*>(sbase);
    auto* vs =
        reinterpret_cast<value_t*>(sbase + scratch_n * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < len; ++i) {
      ks[i] = tuples[i].key;
      vs[i] = tuples[i].val;
    }
    // Ping-pong scratch carved from the bin's own storage (16 B/tuple
    // = one u64 + one f64); the sort's result always lands back in
    // (ks, vs), from where the bin is reinterleaved.
    std::byte* bbase = detail::as_bytes(tuples);
    auto* kb = reinterpret_cast<std::uint64_t*>(bbase);
    auto* vb = reinterpret_cast<value_t*>(bbase + len * sizeof(std::uint64_t));
    radix_sort_lsd_kv(ks, vs, len, kb, vb);
    for (std::size_t i = 0; i < len; ++i) {
      tuples[i].key = ks[i];
      tuples[i].val = vs[i];
    }
  }
};

/// The SoA formats: a key array and, unless V is void, a value array of V
/// carved from one allocation (keys padded to a cache line, then values).
/// Values widen to value_t on load and narrow on store, so the semiring
/// algebra always runs in double; only the stream width changes.  With no
/// value lane a load yields the value-free semiring's present-value.
template <TupleFormat F, typename C, typename V>
struct SoaStream {
  using Codec = C;
  using key_type = typename Codec::type;
  static constexpr TupleFormat kFormat = F;
  static constexpr bool kHasValues = !std::is_void_v<V>;
  static constexpr std::size_t kBytes =
      sizeof(key_type) + detail::lane_bytes<V>;
  /// One 64 B key line per kLineTuples tuples; local-bin capacities and
  /// bin regions are rounded to it so a full flush is whole lines on every
  /// lane (the streaming-store path).
  static constexpr int kLineTuples =
      static_cast<int>(kCacheLineBytes / sizeof(key_type));
  static constexpr int kFlushQuantum = kLineTuples;
  /// A value-free semiring's present-value (1.0 — "true" for bool_or_and):
  /// what a key-only load synthesizes, and exactly what a valued run of
  /// the same semiring stores for every surviving entry.
  static constexpr value_t kPresent = 1.0;

  key_type* keys = nullptr;
  V* vals = nullptr;

  static std::size_t key_span(std::size_t n) {
    return (n * sizeof(key_type) + kCacheLineBytes - 1) / kCacheLineBytes *
           kCacheLineBytes;
  }
  /// Bytes a stream of n tuples reserves: keys, padded to a cache line,
  /// then values — and nothing past the keys when there is no value lane.
  static std::size_t bytes(std::size_t n) {
    return kHasValues ? key_span(n) + n * detail::lane_bytes<V>
                      : n * sizeof(key_type);
  }
  static SoaStream carve(std::byte* base, std::size_t n) {
    SoaStream s;
    s.keys = reinterpret_cast<key_type*>(base);
    if constexpr (kHasValues) {
      s.vals = reinterpret_cast<V*>(base + key_span(n));
    }
    return s;
  }
  [[nodiscard]] SoaStream at(nnz_t off) const {
    SoaStream s{keys + off, vals};
    if constexpr (kHasValues) s.vals = vals + off;
    return s;
  }

  [[nodiscard]] key_type key(std::size_t i) const { return keys[i]; }
  [[nodiscard]] value_t val([[maybe_unused]] std::size_t i) const {
    if constexpr (kHasValues) return static_cast<value_t>(vals[i]);
    return kPresent;
  }
  void set_val([[maybe_unused]] std::size_t i,
               [[maybe_unused]] value_t v) const {
    if constexpr (kHasValues) vals[i] = static_cast<V>(v);
  }
  void store(std::size_t i, key_type k, [[maybe_unused]] value_t v) const {
    keys[i] = k;
    if constexpr (kHasValues) vals[i] = static_cast<V>(v);
  }
  void move(std::size_t src, std::size_t dst) const {
    keys[dst] = keys[src];
    if constexpr (kHasValues) vals[dst] = vals[src];
  }
  void copy_to(const SoaStream& dst, int count) const {
    detail::flush_copy(dst.keys, keys, count);
    if constexpr (kHasValues) {
      detail::flush_copy(dst.vals, vals, count);
    }
  }
  template <typename Fn>
  void for_each_lane(std::size_t lo, std::size_t hi, Fn&& fn) const {
    fn(detail::as_bytes(keys + lo), detail::as_bytes(keys + hi));
    if constexpr (kHasValues) {
      fn(detail::as_bytes(vals + lo), detail::as_bytes(vals + hi));
    }
  }

  /// LSD radix sort by key — the histogram passes read only the key
  /// array; the scatters move the value lane along, if there is one.
  void sort(std::size_t len, const SoaStream& scratch,
            std::size_t /*scratch_n*/) const {
    if constexpr (kHasValues) {
      radix_sort_lsd_kv(keys, vals, len, scratch.keys, scratch.vals);
    } else {
      radix_sort_lsd_keys(keys, len, scratch.keys);
    }
  }
};

/// kNarrow: u32 bin-relative key + f64 value, 12 B per tuple.
using NarrowStream = SoaStream<TupleFormat::kNarrow, BinKey, value_t>;
/// kKeyOnly: u64 global key, no value lane, 8 B per tuple.
using KeyOnlyStream = SoaStream<TupleFormat::kKeyOnly, GlobalKey, void>;
/// kNarrowF32: u32 bin-relative key + f32 value, 8 B per tuple.
using F32Stream = SoaStream<TupleFormat::kNarrowF32, BinKey, f32_val_t>;

static_assert(NarrowStream::kBytes == 12);
static_assert(KeyOnlyStream::kBytes == 8);
static_assert(F32Stream::kBytes == 8);

/// A tuple-stream policy (one of the four views above).  The generic phase
/// entry points take one by value, so a raw pointer never selects them.
template <typename St>
concept TupleStreamView =
    std::is_same_v<St, WideStream> || std::is_same_v<St, NarrowStream> ||
    std::is_same_v<St, KeyOnlyStream> || std::is_same_v<St, F32Stream>;

/// Calls fn(St{}) with the (null) view of format f's policy and returns
/// its result — the one runtime dispatch from a format to its policy.
template <typename Fn>
constexpr decltype(auto) visit(TupleFormat f, Fn&& fn) {
  switch (f) {
    case TupleFormat::kWide: return fn(WideStream{});
    case TupleFormat::kNarrow: return fn(NarrowStream{});
    case TupleFormat::kKeyOnly: return fn(KeyOnlyStream{});
    case TupleFormat::kNarrowF32: return fn(F32Stream{});
  }
  return fn(WideStream{});
}

/// The `b` of the arithmetic-intensity equations for the given stream
/// format — what each expanded tuple actually costs to move through DRAM.
constexpr std::size_t bytes_per_tuple(TupleFormat f) {
  return visit(f, [](auto s) { return decltype(s)::kBytes; });
}

}  // namespace pbs::pb
