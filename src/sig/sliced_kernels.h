/// @file
/// Explicit SIMD kernels for the bit-sliced column-AND match — the inner
/// loop of SlicedSignatureHistory::match_any and therefore of every
/// detector classification.
///
/// The scalar walk does, per address, k dependent column loads ANDed one
/// word at a time. The comparator array the RTL wires up has no such
/// serialization, and neither does the data layout here: for W <= 64 the
/// whole match vector is one 64-bit word, so a 256-bit (AVX2) register
/// holds the match vectors of 4 *addresses* at once — the multiply-shift
/// hash is computed vectorially (the paper
/// picked that family precisely because "a signature can be computed
/// with a handful of AVX instructions", §5.2), the k columns are
/// gathered per lane, and one AND chain classifies the whole batch. For
/// W > 64 the kernel instead ANDs 4 column *words* per op for a single
/// address.
///
/// There is no AVX-512 kernel: on an AVX-512 F/DQ Xeon one lost to AVX2
/// at W=64 and matched scalar at W=128 (docs/PERFORMANCE.md).
///
/// Kernels are selected at runtime from cpuid: every kernel compiled
/// into the binary (per-function `target` attributes, no global -m
/// flags; the ROCOCO_NATIVE preset stays the opt-in for -march=native
/// codegen of everything else) is listed by compiled_kernels(), and the
/// subset this CPU can execute by runtime_kernels(). The scalar kernel
/// is always present and is the oracle every SIMD kernel is fuzzed
/// against bit for bit (tests/detector_equivalence_test.cc).
///
/// Equivalence note: the scalar path early-exits the AND chain as soon
/// as a word goes to zero; the SIMD kernels only when *all* lanes die.
/// The results are still bit-identical — an all-zero lane stays zero
/// under further ANDs — so early-exit asymmetry is unobservable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace rococo::sig {

/// Borrowed, trivially-copyable view of one SlicedSignatureHistory
/// plane — everything a kernel needs, no pointer back into the class.
struct SlicedView {
    /// Column-major occupancy bits: columns[bit * mask_words + w].
    const uint64_t* columns;
    /// Words per occupancy column (== words per match accumulator).
    size_t mask_words;
    /// Hash functions / signature partitions.
    unsigned k;
    /// Bits per partition: bit_index(key, i) lives in
    /// [i * partition_bits, (i+1) * partition_bits).
    unsigned partition_bits;
    /// Multiply-shift right-shift amount: 64 - log2(partition_bits).
    unsigned hash_shift;
    /// The k odd multipliers of the hash family.
    const uint64_t* multipliers;
};

enum class MatchKernel : uint8_t {
    kScalar = 0, ///< portable word-at-a-time walk (the oracle)
    kAvx2 = 1,   ///< 256-bit: 4 addresses (W<=64) / 4 column words per op
};

/// acc |= OR over keys of (AND over i<k of column[bit_index(key, i)]).
using MatchAnyFn = void (*)(const SlicedView& view, const uint64_t* keys,
                            size_t count, uint64_t* acc);

/// Fused two-plane classification — the detector's whole match phase in
/// one call:
///
///     rd |= OR over reads  of match(write_plane, read)
///     wr |= OR over writes of match(write_plane, write)
///     wr |= OR over writes of match(read_plane,  write)
///
/// Both planes share one hash family, so each address is hashed exactly
/// once (the unfused path hashes every write twice), and for W <= 64
/// the AVX2 kernel runs both plane chains off the same index vectors
/// instead of three separate passes. Decision-identical to three
/// match_any calls by construction (same loads, same ANDs).
using ClassifyFn = void (*)(const SlicedView& read_plane,
                            const SlicedView& write_plane,
                            const uint64_t* reads, size_t read_count,
                            const uint64_t* writes, size_t write_count,
                            uint64_t* rd, uint64_t* wr);

const char* to_string(MatchKernel kernel);

/// Kernels compiled into this binary, scalar first. AVX kernels are
/// compiled whenever the compiler supports per-function target
/// attributes on x86-64, independent of the global -march flags.
std::span<const MatchKernel> compiled_kernels();

/// The compiled kernels this CPU can actually execute (cpuid-checked),
/// scalar first. What the equivalence fuzz iterates.
std::span<const MatchKernel> runtime_kernels();

/// True iff @p kernel is compiled in and executable on this CPU.
bool kernel_available(MatchKernel kernel);

/// The widest available kernel — what SlicedSignatureHistory picks at
/// construction.
MatchKernel best_kernel();

/// The dispatch-table entry for an *available* kernel (check
/// kernel_available first; asking for an unavailable kernel returns the
/// scalar function).
MatchAnyFn kernel_fn(MatchKernel kernel);

/// The fused two-plane entry for an *available* kernel; unavailable
/// kernels fall back to the scalar function.
ClassifyFn classify_kernel_fn(MatchKernel kernel);

} // namespace rococo::sig
