/**
 * @file
 * Procedural MPEG-2 stand-in: deterministic synthetic video frames with
 * planted shot cuts and view types.
 *
 * The SHOT and VIEWTYPE workloads consumed 10-minute 720x576 MPEG-2
 * clips. The synthesizer plays the decoder's role: pixel(f, x, y) is a
 * pure function, so any thread can "decode" any frame of its segment
 * into its private frame buffer, and the planted ground truth (cut
 * positions, per-frame view type) lets verify() check the mining result.
 *
 * Frames within a shot share a palette and drift slowly (global motion +
 * a moving blob); a new shot re-seeds the palette, which makes both the
 * color histogram and the pixel-difference signal jump, exactly the two
 * features the shot-detection workload uses. For view-type frames the
 * bottom region of the image is a "playfield" (a narrow green hue band)
 * whose area fraction encodes the view type.
 */

#ifndef COSIM_WORKLOADS_DATA_VIDEO_HH
#define COSIM_WORKLOADS_DATA_VIDEO_HH

#include <cstdint>
#include <vector>

namespace cosim {
namespace synth {

/** The four view types of the VIEWTYPE workload (Section 2.6). */
enum class ViewType : std::uint8_t {
    Global = 0,
    Medium = 1,
    CloseUp = 2,
    OutOfView = 3,
};

const char* toString(ViewType v);

/** Static description of a synthetic clip. */
struct VideoParams
{
    unsigned width = 720;
    unsigned height = 576;
    unsigned nFrames = 48;
    /** A planted cut starts a new shot every this many frames. */
    unsigned shotLength = 9;
};

/** Pixels are packed RGBX (R in the low byte). */
using Pixel = std::uint32_t;

inline std::uint8_t pixelR(Pixel p) { return static_cast<std::uint8_t>(p); }
inline std::uint8_t pixelG(Pixel p)
{
    return static_cast<std::uint8_t>(p >> 8);
}
inline std::uint8_t pixelB(Pixel p)
{
    return static_cast<std::uint8_t>(p >> 16);
}

/** Approximate hue in [0, 255] of a pixel (for HSV dominant color). */
std::uint8_t hueOf(Pixel p);

/** True iff the pixel falls in the playfield's green hue band. */
bool isPlayfieldHue(Pixel p);

/** Bins of SHOT's colour histogram: 16 per RGB channel. */
constexpr unsigned cutHistogramBins = 48;

/** Count @p p into SHOT's colour histogram @p hist. */
inline void
countPixel(std::uint32_t* hist, Pixel p)
{
    ++hist[pixelR(p) >> 4];
    ++hist[16 + (pixelG(p) >> 4)];
    ++hist[32 + (pixelB(p) >> 4)];
}

/** Sum of the per-channel absolute differences of two pixels. */
inline std::uint32_t
pixelDifference(Pixel a, Pixel b)
{
    const int dr = static_cast<int>(pixelR(a)) - pixelR(b);
    const int dg = static_cast<int>(pixelG(a)) - pixelG(b);
    const int db = static_cast<int>(pixelB(a)) - pixelB(b);
    return static_cast<std::uint32_t>((dr < 0 ? -dr : dr) +
                                      (dg < 0 ? -dg : dg) +
                                      (db < 0 ? -db : db));
}

/**
 * SHOT's cut decision between consecutive frames of @p width x
 * @p height pixels: a cut when the normalized histogram distance
 * exceeds @p threshold, or the normalized pixel difference
 * @p pixel_diff exceeds twice it.
 */
bool detectsCut(const std::uint32_t* hist, const std::uint32_t* prev_hist,
                std::uint64_t pixel_diff, unsigned width, unsigned height,
                double threshold);

/** See file comment. */
class FrameSynthesizer
{
  public:
    FrameSynthesizer(const VideoParams& params, std::uint64_t seed);

    const VideoParams& params() const { return params_; }

    /** Deterministic pixel value of frame @p f at (@p x, @p y). */
    Pixel pixel(unsigned f, unsigned x, unsigned y) const;

    /** Index of the shot containing frame @p f. */
    unsigned shotIndex(unsigned f) const { return f / params_.shotLength; }

    /** True iff frame @p f is the first frame of a (non-initial) shot. */
    bool
    isCut(unsigned f) const
    {
        return f != 0 && f % params_.shotLength == 0;
    }

    /** Planted view type of frame @p f (cycles through all four). */
    ViewType plannedView(unsigned f) const;

    /** Playfield area fraction implied by a view type. */
    static double playfieldFraction(ViewType v);

    /**
     * Make every planted cut that a detector with @p threshold will see
     * trip it (detectsCut). A detector split into segments of
     * @p segment_frames frames never compares a segment's first frame,
     * so cuts there are left alone. A shot whose cut would be missed
     * gets its palette redrawn, deterministically and in shot order,
     * until the cut is detected; a clip whose cuts all trip keeps every
     * pixel.
     */
    void makeCutsDetectable(double threshold, unsigned segment_frames);

  private:
    /** The per-frame parts of a background pixel. */
    struct Background
    {
        std::uint8_t baseR;
        std::uint8_t baseB;
        unsigned drift;
        int blobX;
        int blobY;
    };

    /** First row of frame @p f's playfield. */
    unsigned fieldTop(unsigned f) const;
    static Pixel fieldPixel(std::uint64_t ss, unsigned x, unsigned y);
    Background background(unsigned f, std::uint64_t ss,
                          unsigned field_top) const;
    Pixel backgroundPixel(const Background& bg, unsigned x,
                          unsigned y) const;

    std::uint64_t shotSeed(unsigned shot) const;

    /** Write frame @p f into @p out (width * height pixels). */
    void renderFrame(unsigned f, std::vector<Pixel>& out) const;

    VideoParams params_;
    std::uint64_t seed_;
    /** Per-shot seeds once makeCutsDetectable ran; empty before. */
    std::vector<std::uint64_t> shotSeeds_;
};

} // namespace synth
} // namespace cosim

#endif // COSIM_WORKLOADS_DATA_VIDEO_HH
