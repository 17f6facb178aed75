package repro.datagen

import java.nio.{ByteBuffer, ByteOrder}
import repro.storage.{FileSystemWrapper, FileWrapperType, SampleMeta, SampleRegistry}
import repro.util.Rng

/** Synthetic stand-in for the CLOC dataset (§5.1.2, §5.2).
  *
  * CLOC is 39 M geotagged Flickr images (2004–2014) labelled with one of
  * 713 geo-cells, exhibiting *natural distribution shift* over time. This
  * generator keeps the two properties the evaluation needs:
  *
  *  1. '''Storage shape''': one sample per file plus a sidecar label file,
  *     read via [[repro.storage.SingleSampleFileWrapper]] — the layout that
  *     makes CLOC ingestion compute-bound rather than I/O-bound.
  *  2. '''Temporal shift''': both the class prior and the class feature
  *     means drift with the year, so a model trained up to year Y peaks on
  *     evaluation years near Y (the recency peaks of Fig. 9) and selection
  *     proxies like gradient norm are confounded by old-distribution
  *     samples (the effect discussed for Fig. 10).
  *
  * A sample is a `featureDim`-float vector x = m(class, year) + noise,
  * stored little-endian; the label is the class id. All draws are pure
  * functions of (year, index, seed).
  */
object ClocLite {
  val FirstYear: Int = 2004
  val LastYear: Int  = 2014
  val Years: Range   = FirstYear to LastYear

  /** 365-day years measured in seconds — only ordering and year boundaries
    * matter for triggering. */
  def yearStartSec(year: Int): Long = (year - 1970).toLong * 31536000L

  def yearOfTimestamp(ts: Long): Int = (ts / 31536000L).toInt + 1970

  /** Class prior for `year`: a moving window over the class ring, plus a
    * uniform floor, i.e. which geo-cells are "popular" changes over time.
    */
  def classPrior(numClasses: Int, year: Int): Array[Double] = {
    val center = (year - FirstYear).toDouble / (LastYear - FirstYear + 1) * numClasses
    val sigma  = numClasses / 6.0
    val w = Array.tabulate(numClasses) { c =>
      val d  = math.abs(c - center)
      val dd = math.min(d, numClasses - d) // ring distance
      math.exp(-dd * dd / (2 * sigma * sigma)) + 0.15
    }
    val s = w.sum
    w.map(_ / s)
  }

  /** Mean feature vector of `classId` in `year`: a fixed class identity
    * plus a per-year drift of comparable magnitude. The scales are chosen
    * so that (with unit per-dim noise) the task sits in a low-but-
    * learnable accuracy regime like CLOC's — class separation ≈ 2.8,
    * year-to-year mean movement ≈ 1.7 — so a model trained up to year Y
    * visibly degrades on far-away years (the Fig. 9 recency peaks).
    */
  def classMean(classId: Int, year: Int, featureDim: Int, seed: Long): Array[Float] = {
    Array.tabulate(featureDim) { f =>
      val base  = Rng.gaussian(Rng.mix2(seed, classId.toLong * 1009 + f)) * 0.25
      val drift = Rng.gaussian(Rng.mix2(seed ^ 0x5DEECE66DL,
        classId.toLong * 2003 + f * 17 + (year - FirstYear))) * 0.15
      (base + drift).toFloat
    }
  }

  /** Draw the class of sample `(year, idx)` from that year's prior. */
  def drawClass(numClasses: Int, year: Int, idx: Int, seed: Long): Int = {
    val prior = classPrior(numClasses, year)
    var u = Rng.uniform(Rng.mix2(seed, year.toLong * 1000003 + idx))
    var c = 0
    while (c < numClasses - 1 && u >= prior(c)) { u -= prior(c); c += 1 }
    c
  }

  /** The feature payload of sample `(year, idx)` with class `classId`. */
  def payload(classId: Int, year: Int, idx: Int, featureDim: Int, seed: Long): Array[Byte] = {
    val mean  = classMean(classId, year, featureDim, seed)
    val bytes = new Array[Byte](featureDim * 4)
    val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    var f = 0
    while (f < featureDim) {
      val noise = Rng.gaussian(Rng.mix2(seed + 0x9E3779B9L,
        year.toLong * 7919 + idx.toLong * 131 + f))
      bb.putFloat(mean(f) + noise.toFloat)
      f += 1
    }
    bytes
  }

  /** Parse a payload back into a float feature vector (the bytes-parser
    * function of the CLOC pipeline).
    */
  def parse(payload: Array[Byte]): Array[Float] = {
    val bb  = ByteBuffer.wrap(payload).order(ByteOrder.LITTLE_ENDIAN)
    val out = new Array[Float](payload.length / 4)
    var i = 0
    while (i < out.length) { out(i) = bb.getFloat(i * 4); i += 1 }
    out
  }

  /** Write `samplesPerYear` single-sample files (plus `.label` sidecars)
    * per year under `dir` and ingest them into `registry` with year-start
    * timestamps (so a 1-year [[repro.core.triggers.TimePeriodTrigger]]
    * fires once per year). Returns the ingested metadata in time order.
    */
  def generate(fs: FileSystemWrapper, registry: SampleRegistry, dir: String,
               samplesPerYear: Int, numClasses: Int, featureDim: Int = 64,
               seed: Long = 7, years: Range = Years): IndexedSeq[SampleMeta] = {
    require(samplesPerYear > 0 && numClasses > 1, "need samplesPerYear>0, numClasses>1")
    val out = IndexedSeq.newBuilder[SampleMeta]
    for (year <- years) {
      val yearSec = yearStartSec(year)
      var i = 0
      while (i < samplesPerYear) {
        val cls  = drawClass(numClasses, year, i, seed)
        val path = f"$dir/cloc_${year}_$i%06d.bin"
        fs.write(path, payload(cls, year, i, featureDim, seed))
        fs.write(path + ".label", cls.toString.getBytes)
        // Spread samples across the year, preserving intra-year order.
        val ts = yearSec + i.toLong * (31536000L / math.max(samplesPerYear, 1))
        out ++= registry.ingestPrecomputed(path, FileWrapperType.SingleSample,
          IndexedSeq(cls.toLong), _ => ts)
        i += 1
      }
    }
    out.result()
  }
}
