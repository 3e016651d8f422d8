#pragma once

#include <cstddef>

namespace perfbench
{

/**
 * Heap accounting for the benchmark program. heap.cc replaces the global
 * operator new and delete and counts the usable size of every block they
 * hand out, so these read the bytes the program holds through them.
 */
namespace heap
{

/** Bytes allocated through operator new and not yet freed. */
std::size_t liveBytes();

/** The most liveBytes() has been since the last resetPeak(). */
std::size_t peakBytes();

/** Start a new peak at the current liveBytes(). */
void resetPeak();

} // namespace heap
} // namespace perfbench
