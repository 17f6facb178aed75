package repro.util

/** Stable ordering of rows by a primitive `Long` column, without boxing:
  * replay order by time, backend scans by key, and the selection policies'
  * hash order and grouping.
  */
object LongSort {

  /** True iff `values(from until until)` never decreases. */
  def isAscending(values: Array[Long], from: Int, until: Int): Boolean = {
    var i = from + 1
    while (i < until && values(i - 1) <= values(i)) i += 1
    i >= until
  }

  /** Rows `0 until n` ordered by `values(row)` ascending; rows with equal
    * values keep their order. An LSD radix sort over the bytes in which
    * the values differ: one counting pass for small group ids, eight for
    * 64-bit hashes.
    */
  def order(values: Array[Long], n: Int): Array[Int] = {
    var keys = new Array[Long](n)
    var rows = new Array[Int](n)
    var diff = 0L
    var i = 0
    while (i < n) {
      keys(i) = values(i) ^ Long.MinValue // unsigned byte order is signed order
      rows(i) = i
      diff |= keys(i) ^ keys(0)
      i += 1
    }
    var spareKeys = new Array[Long](n)
    var spareRows = new Array[Int](n)
    val count     = new Array[Int](257)
    var shift     = 0
    while (shift < 64) {
      if (((diff >>> shift) & 0xff) != 0) {
        java.util.Arrays.fill(count, 0)
        i = 0
        while (i < n) { count(((keys(i) >>> shift) & 0xff).toInt + 1) += 1; i += 1 }
        var b = 0
        while (b < 256) { count(b + 1) += count(b); b += 1 }
        i = 0
        while (i < n) {
          val d = ((keys(i) >>> shift) & 0xff).toInt
          spareKeys(count(d)) = keys(i)
          spareRows(count(d)) = rows(i)
          count(d) += 1
          i += 1
        }
        val k = keys; keys = spareKeys; spareKeys = k
        val r = rows; rows = spareRows; spareRows = r
      }
      shift += 8
    }
    rows
  }
}
