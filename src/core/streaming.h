// Buffer-based adaptive bitrate selection (the §6.1 extension).
//
// The paper notes ODR's whole-request granularity could be refined with
// Huang et al.'s buffer-based rate adaptation (SIGCOMM'14): when a user
// streams a video "view-as-download", the player should pick the bitrate
// from the buffer level, not from throughput estimates. This module
// implements that controller and a playback simulator, so the benches can
// translate fetch rates into user-visible QoE (rebuffering, average
// bitrate) — the experience behind the paper's 125 KBps "impeded" line.
//
// The BBA map: below `reservoir` seconds of buffer play the lowest rate;
// above `reservoir + cushion` play the highest; in between, interpolate
// linearly across the ladder.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/units.h"

namespace odr::core {

struct BbaParams {
  // Bitrate ladder in bytes/sec (video rate, not network rate). Default:
  // 240p..1080p-class rates around the paper's 125 KBps HD line.
  std::vector<Rate> ladder = {kbps_to_rate(31.25), kbps_to_rate(62.5),
                              kbps_to_rate(125.0), kbps_to_rate(250.0)};
  double reservoir_sec = 10.0;
  double cushion_sec = 50.0;
  double startup_buffer_sec = 5.0;  // buffer before playback starts
};

class BbaController {
 public:
  explicit BbaController(BbaParams params);

  // The bitrate to request given the current buffer level (seconds).
  Rate select(double buffer_sec) const;

  const BbaParams& params() const { return params_; }

 private:
  BbaParams params_;
};

struct StreamingResult {
  double playback_sec = 0.0;      // content duration played
  double startup_delay_sec = 0.0;
  double rebuffer_sec = 0.0;      // stalls after startup
  double average_bitrate = 0.0;   // bytes/sec of content played
  int bitrate_switches = 0;
  // Rebuffering ratio: stalled time over (stalled + played).
  double rebuffer_ratio() const {
    const double total = rebuffer_sec + playback_sec;
    return total <= 0.0 ? 0.0 : rebuffer_sec / total;
  }
};

// Simulates streaming `duration_sec` of content while the network delivers
// `download_rate(t)` bytes/sec (t = seconds since start). The player
// downloads segments at the BBA-selected bitrate and plays from the buffer.
StreamingResult simulate_streaming(
    const BbaController& controller, double duration_sec,
    const std::function<Rate(double)>& download_rate,
    double segment_sec = 4.0);

// Convenience: constant-rate network (our fetch flows are constant-rate).
StreamingResult simulate_streaming(const BbaController& controller,
                                   double duration_sec, Rate download_rate);

}  // namespace odr::core
