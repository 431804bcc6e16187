#include "workloads/data/video.hh"

#include <algorithm>
#include <cstdlib>

#include "base/logging.hh"

namespace cosim {
namespace synth {

namespace {

/** Cheap stateless 64 -> 32 bit mix (for per-pixel noise). */
inline std::uint32_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(x);
}

constexpr std::uint8_t playfieldHueLo = 75;
constexpr std::uint8_t playfieldHueHi = 95;

} // namespace

const char*
toString(ViewType v)
{
    switch (v) {
      case ViewType::Global:
        return "global";
      case ViewType::Medium:
        return "medium";
      case ViewType::CloseUp:
        return "close-up";
      case ViewType::OutOfView:
        return "out-of-view";
    }
    return "?";
}

std::uint8_t
hueOf(Pixel p)
{
    int r = pixelR(p);
    int g = pixelG(p);
    int b = pixelB(p);
    int mx = std::max({r, g, b});
    int mn = std::min({r, g, b});
    int d = mx - mn;
    if (d == 0)
        return 0;
    int h;
    if (mx == r)
        h = (256 * (g - b) / d) / 6;
    else if (mx == g)
        h = (256 * 2 + 256 * (b - r) / d) / 6;
    else
        h = (256 * 4 + 256 * (r - g) / d) / 6;
    if (h < 0)
        h += 256;
    return static_cast<std::uint8_t>(h);
}

bool
isPlayfieldHue(Pixel p)
{
    std::uint8_t h = hueOf(p);
    // Require green dominance too so dark noise does not qualify.
    return h >= playfieldHueLo && h <= playfieldHueHi &&
           pixelG(p) > pixelR(p) && pixelG(p) > pixelB(p);
}

FrameSynthesizer::FrameSynthesizer(const VideoParams& params,
                                   std::uint64_t seed)
    : params_(params), seed_(seed)
{
    fatal_if(params_.width == 0 || params_.height == 0,
             "empty video frame");
    fatal_if(params_.shotLength == 0, "shot length must be nonzero");
}

bool
detectsCut(const std::uint32_t* hist, const std::uint32_t* prev_hist,
           std::uint64_t pixel_diff, unsigned width, unsigned height,
           double threshold)
{
    std::uint64_t dist = 0;
    std::uint64_t total = 0;
    for (unsigned k = 0; k < cutHistogramBins; ++k) {
        dist += static_cast<std::uint64_t>(
            std::abs(static_cast<long>(hist[k]) -
                     static_cast<long>(prev_hist[k])));
        total += hist[k];
    }
    const double hist_metric =
        static_cast<double>(dist) / (2.0 * static_cast<double>(total));
    const double pix_metric =
        static_cast<double>(pixel_diff) /
        (3.0 * 255.0 * static_cast<double>(width) * height);
    // Either feature may jump (the pixel difference supplements the
    // histogram, as in the paper).
    return hist_metric > threshold || pix_metric > 2.0 * threshold;
}

std::uint64_t
FrameSynthesizer::shotSeed(unsigned shot) const
{
    if (shot < shotSeeds_.size())
        return shotSeeds_[shot];
    return seed_ * 0x9e3779b97f4a7c15ull + shot * 0xbf58476d1ce4e5b9ull;
}

void
FrameSynthesizer::renderFrame(unsigned f, std::vector<Pixel>& out) const
{
    // pixel(), with the per-frame parts computed once.
    out.resize(static_cast<std::size_t>(params_.width) * params_.height);
    const std::uint64_t ss = shotSeed(shotIndex(f));
    const unsigned field_top = fieldTop(f);
    const Background bg = background(f, ss, field_top);
    Pixel* p = out.data();
    for (unsigned y = 0; y < params_.height; ++y) {
        for (unsigned x = 0; x < params_.width; ++x) {
            *p++ = y >= field_top ? fieldPixel(ss, x, y)
                                  : backgroundPixel(bg, x, y);
        }
    }
}

void
FrameSynthesizer::makeCutsDetectable(double threshold,
                                     unsigned segment_frames)
{
    fatal_if(segment_frames == 0, "segment length must be nonzero");
    const unsigned n_shots =
        (params_.nFrames + params_.shotLength - 1) / params_.shotLength;
    shotSeeds_.clear();
    for (unsigned s = 0; s < n_shots; ++s)
        shotSeeds_.push_back(shotSeed(s));

    std::vector<Pixel> prev;
    std::vector<Pixel> cur;
    for (unsigned s = 1; s < n_shots; ++s) {
        const unsigned f = s * params_.shotLength;
        if (f % segment_frames == 0)
            continue;
        // Shot s-1 is final, so its last frame is fixed.
        renderFrame(f - 1, prev);
        std::uint32_t prev_hist[cutHistogramBins] = {};
        for (Pixel px : prev)
            countPixel(prev_hist, px);
        for (unsigned redraws = 0;; ++redraws) {
            renderFrame(f, cur);
            std::uint32_t hist[cutHistogramBins] = {};
            std::uint64_t diff = 0;
            for (std::size_t i = 0; i < cur.size(); ++i) {
                countPixel(hist, cur[i]);
                diff += pixelDifference(cur[i], prev[i]);
            }
            if (detectsCut(hist, prev_hist, diff, params_.width,
                           params_.height, threshold))
                break;
            fatal_if(redraws == 64,
                     "no palette makes the cut at frame %u detectable", f);
            shotSeeds_[s] = shotSeeds_[s] * 0x9e3779b97f4a7c15ull +
                            0x94d049bb133111ebull;
        }
    }
}

ViewType
FrameSynthesizer::plannedView(unsigned f) const
{
    return static_cast<ViewType>(shotIndex(f) % 4);
}

double
FrameSynthesizer::playfieldFraction(ViewType v)
{
    switch (v) {
      case ViewType::Global:
        return 0.70;
      case ViewType::Medium:
        return 0.40;
      case ViewType::CloseUp:
        return 0.12;
      case ViewType::OutOfView:
        return 0.0;
    }
    return 0.0;
}

[[gnu::always_inline]] inline unsigned
FrameSynthesizer::fieldTop(unsigned f) const
{
    // Playfield region: the bottom fraction of the frame, green band.
    const double field_frac = playfieldFraction(plannedView(f));
    return static_cast<unsigned>(static_cast<double>(params_.height) *
                                 (1.0 - field_frac));
}

[[gnu::always_inline]] inline Pixel
FrameSynthesizer::fieldPixel(std::uint64_t ss, unsigned x, unsigned y)
{
    std::uint32_t n = mix(ss ^ (static_cast<std::uint64_t>(y) << 32 | x));
    std::uint8_t g = static_cast<std::uint8_t>(150 + (n & 63));
    std::uint8_t r = static_cast<std::uint8_t>(30 + (n >> 8 & 31));
    std::uint8_t b = static_cast<std::uint8_t>(30 + (n >> 16 & 31));
    return static_cast<Pixel>(r) | (static_cast<Pixel>(g) << 8) |
           (static_cast<Pixel>(b) << 16);
}

[[gnu::always_inline]] inline FrameSynthesizer::Background
FrameSynthesizer::background(unsigned f, std::uint64_t ss,
                             unsigned field_top) const
{
    Background bg;
    // Per-shot palette.
    const std::uint32_t pal = mix(ss);
    bg.baseR = static_cast<std::uint8_t>(pal);
    bg.baseB = static_cast<std::uint8_t>(pal >> 16);
    bg.drift = (f % params_.shotLength) * 3;
    bg.blobX = static_cast<int>(
        (mix(ss ^ 0x1234) % params_.width + f * 7) % params_.width);
    bg.blobY = static_cast<int>(
        (mix(ss ^ 0x5678) % (field_top > 0 ? field_top : 1)));
    return bg;
}

[[gnu::always_inline]] inline Pixel
FrameSynthesizer::backgroundPixel(const Background& bg, unsigned x,
                                  unsigned y) const
{
    // Palette gradient with slow per-frame drift. Green is kept strictly
    // below the other channels so only the playfield is ever
    // green-dominant (real crowds/stands are not grass-coloured).
    std::uint8_t r = static_cast<std::uint8_t>(
        64 + (bg.baseR % 160) + ((x + bg.drift) * 31 / params_.width));
    std::uint8_t b = static_cast<std::uint8_t>(
        64 + (bg.baseB % 160) + (y * 31 / params_.height));
    std::uint8_t g = static_cast<std::uint8_t>(std::min(r, b) / 2);

    // A moving blob (a "player"): brightens a disc that tracks the frame
    // index, giving the pixel-difference feature something to see inside
    // a shot.
    int dx = static_cast<int>(x) - bg.blobX;
    int dy = static_cast<int>(y) - bg.blobY;
    if (dx * dx + dy * dy < 400) {
        r = static_cast<std::uint8_t>(std::min(255, r + 90));
        g = static_cast<std::uint8_t>(std::min(255, g + 90));
        b = static_cast<std::uint8_t>(std::min(255, b + 90));
    }

    return static_cast<Pixel>(r) | (static_cast<Pixel>(g) << 8) |
           (static_cast<Pixel>(b) << 16);
}

Pixel
FrameSynthesizer::pixel(unsigned f, unsigned x, unsigned y) const
{
    const std::uint64_t ss = shotSeed(shotIndex(f));
    const unsigned field_top = fieldTop(f);
    if (y >= field_top)
        return fieldPixel(ss, x, y);
    return backgroundPixel(background(f, ss, field_top), x, y);
}

} // namespace synth
} // namespace cosim
