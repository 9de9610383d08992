/**
 * @file
 * Correctness checks shared by the workloads and the benchmark's own
 * tests, kept free of timing so each can be shown to fail on a
 * deliberately broken input.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault.hh"

namespace toolbench
{

/** A µserve request awaiting its reply. */
struct Pending
{
    size_t cell = 0;
    std::chrono::steady_clock::time_point sent;
};

/** Requests awaiting a reply, by frame tag. */
using InFlight = std::map<uint32_t, Pending>;

/**
 * Exactly-once check of one reply: it must answer a request still in
 * @p in_flight, which it then leaves (a doubled reply finds its tag
 * gone, a stray one never finds it).
 * @return "" and the request in @p out when it does, else what is wrong.
 */
std::string takeReply(InFlight &in_flight, uint32_t tag, Pending *out);

/**
 * Exactly-once check of a closed loop after the server has drained:
 * no request is left unanswered in @p in_flight and no reply is left
 * over (@p late_tags, the tags of replies still queued, is empty).
 * @return "" when both hold, else what is wrong.
 */
std::string checkDrained(const InFlight &in_flight,
                         const std::vector<uint32_t> &late_tags);

/** The cycles=<n> line of a µserve OK payload (0 when absent). */
uint64_t replyCycles(const std::string &payload);

/**
 * A campaign's internal consistency: one record per run, a histogram
 * that sums to the runs and agrees with the records, and golden cycles
 * equal to a direct fault-free run's.
 * @return "" when consistent, else what is wrong.
 */
std::string checkCampaign(const muir::sim::CampaignResult &result,
                          unsigned runs, uint64_t direct_cycles);

/** @return "" when two campaigns of one seed agree run for run. */
std::string sameCampaign(const muir::sim::CampaignResult &a,
                         const muir::sim::CampaignResult &b);

} // namespace toolbench
