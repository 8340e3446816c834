(** Golden MD5 digests of [Prog.pp] after the full front end
    ([Pipeline.prepare]), recorded before the optimizer's convergence
    checks became changed flags and its restart loops became worklists.
    The rewrite must keep every op, op id and register number.

    [suite_digests]: one row per suite program, indexed by the front-end
    flags as bits — unroll 8, promote 4, simplify 2, if-convert 1 (index
    15 is the default, everything on).  [gen_minic_digests]: the default
    front end on [Gen_minic.gen_program_with_seed seed], seeds 0..49.

    Never refresh these from the current code to make a change pass: a
    new digest means the optimizer's output moved. *)

let suite_digests =
  [
    ( "rawcaudio",
      [|
        "456eecd01073a3823e9e3060f5cf13db";
        "920a0fcc6dbc3f769e6cc8bc1661e7da";
        "a6b23de70b1a6dbeae3850fb249f3c9e";
        "88d9c3b85f354fca1ed93b29ff85e542";
        "cf8be710b2c756b37570b9ed085dc1f2";
        "093eb47e21c23b8d9cb1e39e792f2868";
        "21c68258c36860770c93aafd4aaba815";
        "c3b8d362d5cc8ab6770e4194c73c9c95";
        "456eecd01073a3823e9e3060f5cf13db";
        "920a0fcc6dbc3f769e6cc8bc1661e7da";
        "a6b23de70b1a6dbeae3850fb249f3c9e";
        "88d9c3b85f354fca1ed93b29ff85e542";
        "cf8be710b2c756b37570b9ed085dc1f2";
        "093eb47e21c23b8d9cb1e39e792f2868";
        "21c68258c36860770c93aafd4aaba815";
        "c3b8d362d5cc8ab6770e4194c73c9c95";
      |] );
    ( "rawdaudio",
      [|
        "c0cca60bb7fa74d25320390e54bf7a17";
        "efa6c5dbad380fff7e13a981eeb04640";
        "3dcaa061413ef69275b3f035c608d08f";
        "3e2c845dad91e969a65943d40f52451e";
        "6783cbafa1a46fa298f0e93835c8fee6";
        "fe3a16a608b664982113e29a268990d4";
        "04a8b67e560fdac67410bab4847b5b7a";
        "5fc8121de5ffa71420c962152e24fe82";
        "c0cca60bb7fa74d25320390e54bf7a17";
        "efa6c5dbad380fff7e13a981eeb04640";
        "3dcaa061413ef69275b3f035c608d08f";
        "3e2c845dad91e969a65943d40f52451e";
        "6783cbafa1a46fa298f0e93835c8fee6";
        "fe3a16a608b664982113e29a268990d4";
        "04a8b67e560fdac67410bab4847b5b7a";
        "5fc8121de5ffa71420c962152e24fe82";
      |] );
    ( "g721enc",
      [|
        "d89c2d6e640fce58f43b5ee57a8fec14";
        "ad86a71f01696d1eb2012eb932322291";
        "11d5eea369e95c8bd00bec9b17895c9d";
        "8b9563a55857e956493c78cbf5410c35";
        "ed5882058ab7261140b6a4e3282dad7c";
        "908bedc54677370b4b02459709024c5a";
        "7ef8f9f09f8d066c893d8ba1d19a25ed";
        "09e654f7070c961ccbb59cbedfe41fc4";
        "10dd114b6b93bb14a9910b644b4ee663";
        "fdeaf76208a77b5b349d444bdac9daa1";
        "0084bba4c2b6c87dc2158391c1144f2a";
        "1e8e18b2b0c7558edd87cf6960ad9174";
        "5fc2a50ef920a58ccf96fceaf666cd0a";
        "0c19b2a852fc09a043ec8e2aabd97fdd";
        "3778aabcaec47781240888ad4855502d";
        "b0ff0a4c4966310e1a4e56e7d8914844";
      |] );
    ( "g721dec",
      [|
        "dd8c0091054de88dc53c3ca8589fb791";
        "533c90ab1d20e9dcdd5d19401f728843";
        "8caf951a359143c0e3a340ca3aa8977c";
        "4c9309324d8939a01e8c19dbb23d2fc1";
        "6d9e717e7f1d7ee27d2897de5c0a81e8";
        "4cff57b43d7c94827edef4cfa5879437";
        "901d7b9a60f4ee589b9694d888d05783";
        "b4f8818bfc375e7b891284e451188955";
        "d853342d8036d28d722453add065d3cf";
        "3f1c3101d90c7f5c345ea11a4faba6a7";
        "52955321a79ce21b9ab7b6626d66b85f";
        "3f137b7502a842e536caa8ec717c5275";
        "9614408328c9f9c3e40f21696f0d94a9";
        "183c3ccc98cbbe8c0731eed9dcc754b8";
        "51620f98489c9138449defa598dd09bc";
        "d70b9cf019307e09e75f77df2497fd92";
      |] );
    ( "cjpeg",
      [|
        "d665aa7e9c4cec6f48579f6e0645868f";
        "d665aa7e9c4cec6f48579f6e0645868f";
        "ae82aab494de34be0ec09901e39d6bf3";
        "ae82aab494de34be0ec09901e39d6bf3";
        "18a39e8129a10f562fa906f8dcdac760";
        "18a39e8129a10f562fa906f8dcdac760";
        "05dcf770b7f5421d306bd21a6351e2b1";
        "05dcf770b7f5421d306bd21a6351e2b1";
        "a5c12e008b2e1d6031c8d2e97cba41a8";
        "a5c12e008b2e1d6031c8d2e97cba41a8";
        "289f93d88e2449304b6f6c4368127d6d";
        "289f93d88e2449304b6f6c4368127d6d";
        "4e3f0f030cf70655476ad4916c171156";
        "4e3f0f030cf70655476ad4916c171156";
        "cf87a7ba76bdf525a910d2c89e9452e4";
        "cf87a7ba76bdf525a910d2c89e9452e4";
      |] );
    ( "djpeg",
      [|
        "3831d3381dc336d102ef74814572e909";
        "b6cc539bfed7160aa3e2a488a23b9ade";
        "9ca584acc8c57e4e5d9e4ef955e7a342";
        "fed877cd45b8e65396b01e245615595a";
        "0e34224e4beab1cf94b43558ab7d93f9";
        "6b9f5c8f656b7d30de10fe80c07655bb";
        "8142ad10d13b8c8b31dfc9e43531b7c3";
        "c70118e95983c345eefcfe190c437f53";
        "3831d3381dc336d102ef74814572e909";
        "b6cc539bfed7160aa3e2a488a23b9ade";
        "9ca584acc8c57e4e5d9e4ef955e7a342";
        "fed877cd45b8e65396b01e245615595a";
        "0e34224e4beab1cf94b43558ab7d93f9";
        "6b9f5c8f656b7d30de10fe80c07655bb";
        "8142ad10d13b8c8b31dfc9e43531b7c3";
        "c70118e95983c345eefcfe190c437f53";
      |] );
    ( "mpeg2enc",
      [|
        "09e5e1b782cc79c0cc14628050b378f1";
        "09e5e1b782cc79c0cc14628050b378f1";
        "67b11c9aa201468d6ef70061fad1e372";
        "67b11c9aa201468d6ef70061fad1e372";
        "62cf6f27485e27e9ab1b49dad92d07f5";
        "62cf6f27485e27e9ab1b49dad92d07f5";
        "f2501f7960b665e9aafbc78cee459173";
        "f2501f7960b665e9aafbc78cee459173";
        "fed35dbdabbc73baa6e16876ecc1955d";
        "fed35dbdabbc73baa6e16876ecc1955d";
        "7d958632ceefd26e1c462ddbc39bde21";
        "7d958632ceefd26e1c462ddbc39bde21";
        "18034caa1da4171c3cada028e9143a50";
        "18034caa1da4171c3cada028e9143a50";
        "7c79d0d979ad8af2f6add85700e4fb63";
        "7c79d0d979ad8af2f6add85700e4fb63";
      |] );
    ( "mpeg2dec",
      [|
        "f5f99e785a644b282e53f4e96a6849e7";
        "43572dafe1e91c644536a7077dd6c928";
        "6f364064a01cc4464ee2febba225acf1";
        "83c4be4a545cc0eacae71586d9c443fb";
        "da4672074e02988fbe639243af2387fd";
        "347fe27d35cb49fb796a374ff6abe15c";
        "c4e54dd2029c848af510715412e1c627";
        "ec9f521fdddae0efb1acfd0af5048f2d";
        "e80219e787463f6b2b86b15a84a65852";
        "9993d51a3e406d1e27940989aad20696";
        "6ac2325046c0b218214b8ccb90478e21";
        "38b00e8d5482ace10633040aa8ec1b0f";
        "6d89c44876672fbe7bca41a9c3d7199d";
        "746f427a8187228a23136e28aa1969a2";
        "b3803faf1e08b5c21509e6bd7734ad8d";
        "b8bddbd9228cfe567b4f5d324eba6634";
      |] );
    ( "epic",
      [|
        "9a17606bd91036ef64280c830a28997c";
        "cbc08a3d463973c629a19232ba7d77cb";
        "f94594fe86fe4a81d7fb004b16471ff1";
        "bd31483b4bdbeb0a425f15f1bb9ecb41";
        "90482ed01c64997772afb7cd4a631159";
        "c0d4b9405e49d9df3149766819c1a490";
        "bd1eeb39217ae0c418a0c414d500a2de";
        "ed6e539ff0dbe7b78112a83f5318030e";
        "d77e8561e59f883daa06072033dbfc46";
        "30cb013bf2ce8951505d9575c1089d4f";
        "e2e33ea1a724cf9b89104611e43faf91";
        "23d73aa931a3a796625f887b2647ddac";
        "1dc35ee9fe8e98edfcdc223d14493d17";
        "61f404d5e89782d57e5288b62135419e";
        "e674c57eadfcf04fc0ffea7211372c8c";
        "04682e4efb5d9859774648d2673626cc";
      |] );
    ( "unepic",
      [|
        "436237ea124c92bfc4666a07f14571b9";
        "688d2b059563eaea4b77b6d655812266";
        "20ea09faeeea172a391471e55a7f46e3";
        "ef7c11e1dceec76a13f7ebbfdd62aa1b";
        "2f0cd8ed71e49d2444a004c83d0c295a";
        "7434cc6ac5800ad276c0086c9ef2a46a";
        "9a7c91fedb7a94f3c09aad77fd0b6c11";
        "1868c42d694a23dff8e1c8b3c8e66087";
        "31ec1500fb0f1e03c6a6102396f28e4b";
        "cd94d5905648ca3bd37ad3e5a6dc3dff";
        "b0e34c80467d01d59450762686c86238";
        "484395483913c18a705cd04755277689";
        "776eaf50c86390acdba7aa6382bdfa21";
        "9652d6cbf665bf51bbf63284ab011270";
        "7a0b0a80ed299843b750871974ad3248";
        "bb7381b101292aadcab8c60b7bf76eac";
      |] );
    ( "gsmenc",
      [|
        "1d27c21cd75ab48dd83e915bb830986b";
        "060b0d74c666ea1e468f5feb4aedf971";
        "b9ca251157278a840a8e413767e36dc6";
        "e3ab10ddf8a976a9dc36b1374f833015";
        "ce86b3064efeb31397692042a3d4c2a4";
        "6edbb305c093f3903fe32213470fbb48";
        "96e440827b5198232a2b5f47d0cd92e4";
        "6ff019f0b2844b0854b42f19db349e76";
        "1bf98d8ee108b1a2491d5a6859e0ea05";
        "4807dfeb62da2503eca5d29756076add";
        "61bcddd25c43b140232ce8b637d009bc";
        "3325b23156028eda345b006430abf654";
        "1df8207fdcab9fb0c2289e94da1efa30";
        "ba58a6cd6f67da2f1997f7f4ae082b8d";
        "54243fd19287d434f69915ad9ee93221";
        "a65245bbee4f6749dde5ef5ab0d17ddf";
      |] );
    ( "gsmdec",
      [|
        "fe37bb9a9ea4ef68400e54130778b391";
        "a34011619bfd9ad874667b51c845d7cf";
        "5815d3b7d40b840e5f8679c444ee4f3d";
        "8cb3c727178e11ee5bb5df0aa1b45c6d";
        "ffe600f3dfa2685b9b234ca872bc9bb0";
        "0c52480a377c94dfe357c147c03dcccc";
        "2812210e383e5211f41f40d90b36f37e";
        "035abbf06f7ba57cf21478f4b037789b";
        "1078ec85883b86c22d59966197d0b91a";
        "c79abcbc83070aa187bb36ac23780274";
        "cc8cd3fb5568550767d678febfddbd26";
        "a29b665345dbf18343546521b6c20c9d";
        "5506e8d8367219cadb83bb74b7800831";
        "633f510bef08a18bb1438dac7cbd509c";
        "b3a971cf21a268800f90c6f0a8a12d3a";
        "4c75b5b6b26382b3d6294d8e0efc9624";
      |] );
    ( "pegwit",
      [|
        "702088dca8dbbe5167f9a31398d6ed95";
        "04e2a668a7cdab6d4caaa6faebe2c68d";
        "87754e39f8fe90a0b7cd55f58573268a";
        "726ac12910f9f055e000e6a5798f7d9b";
        "1c30444bc956db8dfcc672f8948fe28a";
        "a3eb6e61b5e429bd5e2946c3746f2342";
        "4af664b7ccd480b80c65a5e07c02e439";
        "b5613305fb2c8dd44e81708b28ce866a";
        "7ab5d3dac2ae2fe6e22ef387a88c5353";
        "df1fa3fef04e1ec0b9ff95c584dab863";
        "1c8ac2a6a72ae8cd9481a7fa2f78efcc";
        "a879af8be70a9cc2f5fed7945929e21f";
        "7cfad60e2dbc1d41d0eb6117bef8d91d";
        "63a8b6566bad91d8e4486975cb005527";
        "6883f9a86b99a65dadc0491d0dcb41e7";
        "68b36be43c8b951e50cd2880530509d1";
      |] );
    ( "fir",
      [|
        "5680eeea17114c80b36008ca7fe0f30b";
        "4f13724b74fc0e9d10941fb5b7aa718e";
        "eb8ea3fe3d6894572899de13c6b976e2";
        "b5e515ce3e03bc581e17e27616e23731";
        "18b5c8656cd45a1ba7b550b946881892";
        "9365495714337aa54928613e88f12504";
        "55260eb23633907b20dda5acd7372281";
        "28def43a370856b480238f7cfa26b4a8";
        "9ce2361aa9bbe08ff132fe040623f2fe";
        "05d4bf99d7ef604bbfec3941ffef43dd";
        "bede3eea84f2721a7068bb22e3a75515";
        "9f6360754e8718dec9eed43949b5c618";
        "213b4b242e22b66b59d112f27ffe3fa1";
        "b397875805f9cd1fe8f0ae2fd20b7fbd";
        "addaa3aa96fb52ad4fae2952845729f5";
        "16bc00288b82f068a0314acf6cf128f8";
      |] );
    ( "fsed",
      [|
        "50d806c2f51b7f4bd6a2f3278b58d0f5";
        "ec79ca74aeea496e232889ac22acd9e4";
        "ed55bef32ef2870c26273f07515c7aa3";
        "f5e96a91cfada72d5b6e4a96c1e0e8fc";
        "73e987037f4964ddd78e0a956730d915";
        "d369a91fc396d65d97d812b9dba44cf3";
        "56b71aea726d24b028ef7418ad483cd3";
        "1ec5dfe126c77289ee05271aced5cfe2";
        "50d806c2f51b7f4bd6a2f3278b58d0f5";
        "ec79ca74aeea496e232889ac22acd9e4";
        "ed55bef32ef2870c26273f07515c7aa3";
        "f5e96a91cfada72d5b6e4a96c1e0e8fc";
        "73e987037f4964ddd78e0a956730d915";
        "d369a91fc396d65d97d812b9dba44cf3";
        "56b71aea726d24b028ef7418ad483cd3";
        "1ec5dfe126c77289ee05271aced5cfe2";
      |] );
    ( "sobel",
      [|
        "10b23bc3e7502e9280cf796243ff685d";
        "982865929ec00c5beb36a82427adb6a3";
        "079327e27389acb9d62963cf83c5e279";
        "8638572c4fd428504976556ea74e4187";
        "7393a3027506cecb5da73c285679e144";
        "87acee433e691f4426175588848457d2";
        "2d9676070a359adc5e147a5e8dba087a";
        "e2b44a29702ca19841acc30e9ffd57a6";
        "235dab88e67dea817af969d4d4b989de";
        "7e33b29b603eca1dfd24addfe59edb14";
        "d70ddb76ad85eef6239270b67143681e";
        "f58967b2dc3429dbe436e7129a00b897";
        "fa3c9aa5280dbe1173cc28988fe60e6a";
        "9d22d26e1c5122990a9eb8cbb7855b2f";
        "73dad2ec1277662fa459ad60f0403792";
        "ac38174ae20f24d94ba190646a3f4db2";
      |] );
    ( "viterbi",
      [|
        "80ef19ca979680bc4847c0d9d7e772f4";
        "fd41085b8cf6b3c4482e58bb291b752e";
        "88e43280bc78b2181ce4ad7a7e279e0a";
        "63728c335a0b2283c69737c4bf535e19";
        "445d9edcadaf9b42419a93238dc24d8c";
        "6daf44a361fd0697ae9d5aa97af7e613";
        "d525d8194575468ca378d133bdf2a9dd";
        "738c0b0a2681efc24f82df8637f06b87";
        "faf429a6bd1a692d3e6bc21b29cf05a8";
        "d6aaf3931883dea1b36e647772cbe409";
        "2b3e06c694183d765cfc18d7887b9d96";
        "57ddddd36e8b689409095140cef358a3";
        "a0ea5e726f682ab70208d128820559c3";
        "b5607f3f38b703df0ce8d9e05e594bdb";
        "9f587190b98fbd4911b04d74af1c4ddd";
        "5346b647ab0fa1d7b3e7b78070ce68f1";
      |] );
    ( "iirflt",
      [|
        "1760bb0e77d4f0b38d220fbd587ef42c";
        "1760bb0e77d4f0b38d220fbd587ef42c";
        "5b8b81b420575ae257440a4cd799c8cc";
        "5b8b81b420575ae257440a4cd799c8cc";
        "7c5a205959d55f4b68aa7bfedd1921b4";
        "7c5a205959d55f4b68aa7bfedd1921b4";
        "2aacc1d12a373fb48659acdf268a2400";
        "2aacc1d12a373fb48659acdf268a2400";
        "1760bb0e77d4f0b38d220fbd587ef42c";
        "1760bb0e77d4f0b38d220fbd587ef42c";
        "5b8b81b420575ae257440a4cd799c8cc";
        "5b8b81b420575ae257440a4cd799c8cc";
        "7c5a205959d55f4b68aa7bfedd1921b4";
        "7c5a205959d55f4b68aa7bfedd1921b4";
        "2aacc1d12a373fb48659acdf268a2400";
        "2aacc1d12a373fb48659acdf268a2400";
      |] );
  ]

let gen_minic_digests =
  [|
    "49b216b5f7f9ea31a57acad4394ea2f6";
    "62c5a2fa6a7d176b7d1abb7dc49d457f";
    "908f34c01cce5456ecdbd7871877568f";
    "80afd7364c567db31d007a7636762402";
    "b1e0e4c56ef2564cd69a9debda03f262";
    "78fa478cb8c83b38f2e1f5eeeeb857e8";
    "5fe398780f5e9d390fd6cc1009abd77a";
    "6cb568c204014f3eab900e0a73913946";
    "b4ee647ec23db2dd59ce6d6283177a96";
    "819e572ad56dec61e05f33681396621d";
    "275f324535d923fb7fb7b87950edce40";
    "bbb31dbdd1191dfc0265776087cc632a";
    "a0e3d953de14c9be899a1843f5eba7b6";
    "ed6809a0255d60f655971bf5beedfed3";
    "acfd9819e22d36f27f2e25f7448fe553";
    "66b272fb07387d475ab1a871e5ad388b";
    "8bce3d55626aaccec56054e9ee6f0443";
    "5b6e528cc1c480a57373fef6c5eba793";
    "bf03d171cf889f9960fbe74d7007b936";
    "9717a4add18a75463890eb5c90f816c8";
    "2eda55bd9f915bb29d05093cce4fc364";
    "cb140afbf13f6c5f2ae9df244f0ccc25";
    "19f12229d91ee6d8f6d3ca96f7d9227a";
    "e7231ab5e8e317800e6e74ebc857b686";
    "fb745cfb0de7faafdaa4968f93310446";
    "c68dce7bc6892f6fa68181ff59df3a8a";
    "9ff693da6775259a5a8a47d19c0422ca";
    "91e1f6f4eb6c6dc5ef1b3fb4b57b2df2";
    "aa28d43e8c609cac8e53e44d7ff2bfe9";
    "f56a8337aeacdc60d48d54db953d5a0b";
    "4b0fafc494189d39d2dba1021627b44d";
    "f23024f3b25b6682aa9e412e21795fad";
    "effe1fcab86cd1c86494dd42f140a157";
    "da8099923f6b3efcd713d92ca4dd695d";
    "0a0c51daebffbc0d255caff4d819ff05";
    "e1a3326efae78cb0ab855bf94475e7c2";
    "040aade9d31b65bb24952a3e5c05e8ab";
    "65432094305f8ac441d5dd8d37bc5cd6";
    "01f039abebd7acc6b861b245a3fed717";
    "263371f53d1db7708c06fb7944895ddf";
    "373d5e07b51d9bd78a87538bed176741";
    "fb5fff6626db07ddaa7a88f33ff9aaef";
    "085312c489a66e4def8fef6349cdeeec";
    "099eb299fa1fee7b67d0319b95762a68";
    "ecd9ba6447f1259661c2cd11da683974";
    "1d7a326eddd6186bf51cf468b38d4147";
    "e4d6237c00c92e23caf24abc67a26c9c";
    "770e36e2db99fed7002721d0f4bab19e";
    "bed9f6a56978addc6b0f8003b454fd5c";
    "f017f63723b160169ed78b307850648a";
  |]
