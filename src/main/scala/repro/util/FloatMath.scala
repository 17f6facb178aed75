package repro.util

/** Float-valued math that is bit-identical to a `StrictMath` reference but
  * runs at the speed of the JIT's `Math` intrinsics.
  */
object FloatMath {

  /** Bounds on |v| within which `1.0 + v` is exact in double: a float has a
    * 24-bit significand, so for 2^-29 <= |v| <= 2^29 the sum spans at most
    * 53 bits.
    */
  private[repro] final val MinFast: Double = 1.862645149230957e-9 // 2^-29
  private[repro] final val MaxFast: Double = 536870912.0          // 2^29

  /** The fast path needs more than this many ulps of its double result
    * between that result and the nearest float rounding midpoint.
    */
  private final val MarginUlps = 8L

  /** `(float) StrictMath.log1p(v)`, bit for bit, on every JVM.
    *
    * In the fast range `1.0 + v` is exact, so `a = Math.log(1.0 + v)` and
    * the fdlibm `s = StrictMath.log1p(v)` approximate the same exact value
    * `x`, each within 1 ulp(x) of it (the accuracy the `Math.log` and
    * `Math.log1p` contracts require). Since ulp(x) <= 2 ulp(a),
    * |s - a| <= 4 ulp(a). Rounding a double to float changes its result only
    * at the midpoints between adjacent floats, and the 29 low significand
    * bits of `a` (those a float drops) give its distance, in ulps of `a`, to
    * the midpoint of its float interval; every other midpoint is at least
    * 2^27 ulps away. Where that distance exceeds 8, no midpoint lies in
    * `a ± 8 ulp(a)`, a window that contains `s`, so `s` rounds to the same
    * float as `a`. Otherwise, and outside the range (NaN, ±∞, ±0,
    * subnormals, `v <= -1`, large |v|), `StrictMath` decides.
    */
  def log1pFloat(v: Float): Float = {
    val f = log1pFast(v)
    if (f == f) f else StrictMath.log1p(v.toDouble).toFloat
  }

  /** The fast path of [[log1pFloat]] alone: its result where the margin
    * decides it, NaN where `StrictMath` must (a log1p in the fast range is
    * never NaN).
    */
  private[repro] def log1pFast(v: Float): Float = {
    val d = v.toDouble
    val m = Math.abs(d)
    if (m >= MinFast && m <= MaxFast && d > -1.0) {
      val a   = Math.log(1.0 + d)
      val low = java.lang.Double.doubleToRawLongBits(a) & 0x1FFFFFFFL
      if (Math.abs(low - 0x10000000L) > MarginUlps) a.toFloat else Float.NaN
    } else Float.NaN
  }
}
