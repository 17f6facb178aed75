package repro.selector

import repro.storage.SampleColumns
import repro.util.{LongSort, Rng}
import scala.collection.mutable

/** Train on all (new) data — the paper's `NewDataStrategy`, whose policy
  * logic is a single line (§5.2, pipeline 1): yield everything the backend
  * has, with weight 1. With `resetAfterTrigger` the backend only holds the
  * data since the last trigger, so this trains on each trigger's new data;
  * without it, on the full history.
  */
final class NewDataStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                            limit: Option[Int] = None)
    extends AbstractSelectionStrategy(ctx, resetAfterTrigger, limit) {

  override protected def select(pool: SeenColumns, triggerId: Int): Array[Int] =
    Array.range(0, pool.size)
}

/** Uniform random presampling (§5.2, pipeline 2): keep a `fraction` (or at
  * most `maxSamples`) of the candidate pool, chosen by ordering on a
  * deterministic per-(key, trigger) hash.
  */
final class UniformRandomStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                                  fraction: Option[Double] = None,
                                  maxSamples: Option[Int] = None)
    extends AbstractSelectionStrategy(ctx, resetAfterTrigger, None) {
  require(fraction.nonEmpty || maxSamples.nonEmpty, "need fraction or maxSamples")
  fraction.foreach(f => require(f > 0 && f <= 1.0, s"fraction must be in (0,1], got $f"))

  private def targetCount(n: Long): Int = {
    val byFraction = fraction.map(f => math.ceil(f * n).toLong).getOrElse(n)
    math.min(byFraction, maxSamples.map(_.toLong).getOrElse(Long.MaxValue)).toInt
  }

  override protected def select(pool: SeenColumns, triggerId: Int): Array[Int] =
    hashOrder(pool, Array.range(0, pool.size), triggerId).take(targetCount(pool.size))
}

/** Balanced presampling over some column (§4.1.2): the developer "inherits
  * from the AbstractBalancedStrategy and specifies the column to balance
  * on". Each group contributes an equal quota — `limit / numGroups` when a
  * limit is set, else the smallest group's size — with members chosen by
  * the deterministic hash order. The selection is returned in key order.
  */
abstract class AbstractBalancedStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                                        limit: Option[Int])
    extends AbstractSelectionStrategy(ctx, resetAfterTrigger, None) {

  /** The value of row `row` to balance on: its label or arrival trigger. */
  protected def groupOf(pool: SeenColumns, row: Int): Long

  override protected def select(pool: SeenColumns, triggerId: Int): Array[Int] = {
    val n     = pool.size
    val group = new Array[Long](n)
    (0 until n).foreach(r => group(r) = groupOf(pool, r))
    // A counting sort by group: each group's rows are contiguous, in key order.
    val byGroup = LongSort.order(group, n)
    val bounds  = Array.newBuilder[Int] += 0
    (1 to n).foreach(i => if (i == n || group(byGroup(i)) != group(byGroup(i - 1))) bounds += i)
    val b      = bounds.result()
    val groups = b.length - 1
    if (groups == 0) return Array.emptyIntArray
    val quota  = limit.map(_ / groups).getOrElse((0 until groups).map(g => b(g + 1) - b(g)).min)
    val picked = Array.newBuilder[Int]
    (0 until groups).foreach { g =>
      picked ++= hashOrder(pool, java.util.Arrays.copyOfRange(byGroup, b(g), b(g + 1)), triggerId).take(quota)
    }
    val rows = picked.result()
    java.util.Arrays.sort(rows) // row order is key order
    rows
  }
}

/** Equal share per label (class-balanced presampling). */
final class LabelBalancedStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                                  limit: Option[Int] = None)
    extends AbstractBalancedStrategy(ctx, resetAfterTrigger, limit) {
  override protected def groupOf(pool: SeenColumns, row: Int): Long = pool.labels(row)
}

/** Equal share per trigger in which samples arrived. Only meaningful without
  * reset-after-trigger (otherwise a single trigger group remains).
  */
final class TriggerBalancedStrategy(ctx: SelectorContext, resetAfterTrigger: Boolean,
                                    limit: Option[Int] = None)
    extends AbstractBalancedStrategy(ctx, resetAfterTrigger, limit) {
  override protected def groupOf(pool: SeenColumns, row: Int): Long = pool.trig(row).toLong
}

/** GDumb (Prabhu et al., ECCV'20) as the paper's example *online*
  * presampling policy (§4.1.2): a fixed-size, class-balanced memory
  * maintained as data streams in. A new sample is admitted if the memory
  * has room, or if its class is smaller than the currently largest class —
  * in which case a (hash-deterministic) member of the largest class is
  * evicted. On trigger, the training set is the memory's contents.
  */
final class GDumbStrategy(ctx: SelectorContext, val memorySize: Int,
                          resetAfterTrigger: Boolean = false)
    extends AbstractSelectionStrategy(ctx, resetAfterTrigger, None) {
  require(memorySize > 0, "memorySize must be positive")

  private val memory = mutable.Map.empty[Long, mutable.ArrayBuffer[Long]] // label -> keys
  private var total  = 0

  /** Online policy: state lives in memory, not in the backend. */
  override def inform(batch: SampleColumns): Unit = (batch.from until batch.until).foreach { i =>
    val key    = batch.keys(i)
    val label  = batch.labels(i)
    val bucket = memory.getOrElseUpdate(label, mutable.ArrayBuffer.empty)
    if (total < memorySize) {
      bucket += key; total += 1
    } else {
      val (bigLabel, bigBucket) = memory.maxBy { case (l, b) => (b.size, -l) }
      if (bucket.size < bigBucket.size) {
        // Deterministic stand-in for GDumb's random eviction.
        val evictIdx = bigBucket.indices.maxBy(i => Rng.mix2(bigBucket(i), ctx.seed ^ bigLabel))
        bigBucket.remove(evictIdx)
        bucket += key
      } // else: memory balanced and full — drop the sample.
    }
  }

  /** Current memory occupancy per label (exposed for tests/inspection). */
  def memoryCounts: Map[Long, Int] = memory.map { case (l, b) => l -> b.size }.toMap

  /** The memory's keys, by label and then key; the training set is all of
    * it, so the other columns stay unused.
    */
  override protected def candidates(): SeenColumns = {
    val keys = memory.toIndexedSeq.sortBy(_._1).flatMap(_._2.sorted).toArray
    new SeenColumns(keys, new Array(keys.length), new Array(keys.length), new Array(keys.length))
  }

  override protected def select(pool: SeenColumns, triggerId: Int): Array[Int] =
    Array.range(0, pool.size)

  override protected def resetState(): Unit = { memory.clear(); total = 0 }
}

/** The paper's general-purpose `CoresetStrategy`: an offline/online
  * presampling policy combined with a downsampling policy that the trainer
  * executes on the presampled trigger training set (§4.1.2, Fig. 3).
  */
final class CoresetStrategy(presampler: SelectionStrategy,
                            downsamplingConfig: DownsamplingConfig)
    extends SelectionStrategy {
  override def inform(batch: SampleColumns): Unit   = presampler.inform(batch)
  override def onTrigger(): TriggerTrainingSet      = presampler.onTrigger()
  override def downsampling: Option[DownsamplingConfig] = Some(downsamplingConfig)
  override def nextTriggerId: Int                    = presampler.nextTriggerId
  override def seekTrigger(triggerId: Int): Unit     = presampler.seekTrigger(triggerId)
}

/** Per-trigger policy switching (§4.1.2): e.g. train on all data first,
  * sample on later triggers. `schedule` maps a starting trigger id to the
  * strategy active from that trigger on; entries must start at 0.
  */
final class PolicyScheduler(schedule: Seq[(Int, SelectionStrategy)]) extends SelectionStrategy {
  require(schedule.nonEmpty && schedule.map(_._1).min == 0,
    "schedule must be non-empty and cover trigger 0")
  private val sorted  = schedule.sortBy(_._1)
  private var trigger = 0
  // The strategy that produced the latest trigger training set; the
  // trainer reads its downsampling after `onTrigger` advanced `trigger`.
  private var served: Option[SelectionStrategy] = None

  private def active: SelectionStrategy =
    sorted.takeWhile(_._1 <= trigger).last._2

  override def inform(batch: SampleColumns): Unit = {
    val a = active
    a.seekTrigger(trigger)
    a.inform(batch)
  }

  override def onTrigger(): TriggerTrainingSet = {
    val a = active
    a.seekTrigger(trigger)
    val tts = a.onTrigger()
    served = Some(a)
    trigger += 1
    tts
  }

  override def downsampling: Option[DownsamplingConfig] =
    served.getOrElse(active).downsampling
  override def nextTriggerId: Int = trigger
  override def seekTrigger(triggerId: Int): Unit = { trigger = triggerId }
}
