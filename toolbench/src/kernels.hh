/**
 * @file
 * The scaled_sim inputs: two kernels built with the IRBuilder at sizes
 * well past the built-in workloads, filled from the benchmark seed,
 * with golden outputs from a plain C++ reference computed here.
 */
#pragma once

#include <cstdint>
#include <string>

#include "ir/interp.hh"
#include "workloads/workload.hh"

namespace toolbench
{

/** @name FIR filter: out[i] = sum_j h[j] * x[i + j] (serial, carried
 *  reduction). x, h and out together fit the modelled 64 KB L1. @{ */
inline constexpr int kFirOutputs = 2304;
inline constexpr int kFirTaps = 64;
/** @} */

/** @name Blocked parallel axpy: y = a*x + y, one spawn per block of
 *  kAxpyBlock elements, all joined by a single sync. x and y are far
 *  beyond the L1. @{ */
inline constexpr int kAxpySpawns = 32768;
inline constexpr int kAxpyBlock = 3;
inline constexpr float kAxpyA = 1.75f;
/** @} */

/** Build the compute-bound FIR kernel with seeded inputs. */
muir::workloads::Workload buildFirKernel(uint64_t seed);

/** Build the wide-fan-in parallel axpy kernel with seeded inputs. */
muir::workloads::Workload buildAxpyKernel(uint64_t seed);

/**
 * Compare every expected output of @p w against @p mem bit for bit.
 * @return "" on a match, else the first mismatching word.
 */
std::string checkExact(const muir::workloads::Workload &w,
                       const muir::ir::MemoryImage &mem);

} // namespace toolbench
